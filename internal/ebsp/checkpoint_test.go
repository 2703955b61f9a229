package ebsp

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"ripple/internal/diskstore"
	"ripple/internal/kvstore"
	"ripple/internal/memstore"
	"ripple/internal/trace"
)

// crashAfter aborts the job at a chosen step, standing in for a crash; the
// checkpoint written before it must allow a full Resume.
func crashAfter(step int) Aborter {
	return AborterFunc(func(s int, _ map[string]any) bool { return s >= step })
}

// checkpointChainJob counts visits per key in state; deterministic output
// lets the test compare a crashed+resumed run to an uninterrupted one.
func checkpointChainJob(name string, limit int, aborter Aborter) *Job {
	return &Job{
		Name:        name,
		StateTables: []string{name + "_state"},
		Aborter:     aborter,
		Compute: ComputeFunc(func(ctx *Context) bool {
			for _, m := range ctx.InputMessages() {
				n := m.(int)
				ctx.WriteState(0, n)
				if n < limit {
					ctx.Send(ctx.Key().(int)+1, n+1)
				}
			}
			return false
		}),
		Loaders: []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 1}}}},
	}
}

func TestCheckpointAndResume(t *testing.T) {
	store := memstore.New(memstore.WithParts(4))
	t.Cleanup(func() { _ = store.Close() })
	e := NewEngine(store, WithCheckpoints(3))

	// Crash after step 7 (checkpoints at 3 and 6).
	res, err := e.Run(checkpointChainJob("ckpt", 20, crashAfter(7)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted || res.Steps != 7 {
		t.Fatalf("crash run: aborted=%v steps=%d", res.Aborted, res.Steps)
	}

	// Resume without the aborter; it must continue from step 6's snapshot.
	res2, err := e.Resume(checkpointChainJob("ckpt", 20, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Steps != 20 {
		t.Errorf("resumed run finished at step %d, want 20", res2.Steps)
	}
	tab, _ := store.LookupTable("ckpt_state")
	for i := 0; i < 20; i++ {
		v, ok, _ := tab.Get(i)
		if !ok || v != i+1 {
			t.Errorf("state[%d] = %v, %v", i, v, ok)
		}
	}
	// Checkpoint tables are dropped after successful completion.
	if _, ok := store.LookupTable(ckptMetaTable("ckpt")); ok {
		t.Error("checkpoint meta table survived successful completion")
	}
}

// A resumed run is a run: its trace has the job root like any other, and no
// load span, because nothing was loaded.
func TestResumeRecordsJobSpans(t *testing.T) {
	store := memstore.New(memstore.WithParts(4))
	t.Cleanup(func() { _ = store.Close() })
	if _, err := NewEngine(store, WithCheckpoints(3)).Run(checkpointChainJob("ckpt-spans", 12, crashAfter(7))); err != nil {
		t.Fatal(err)
	}
	tr := trace.New(4096)
	e := NewEngine(store, WithCheckpoints(3), WithTracer(tr), WithTraceSampler(trace.NewSampler(1, 42)))
	if _, err := e.Resume(checkpointChainJob("ckpt-spans", 12, nil)); err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot()
	ids := trace.Traces(spans)
	if len(ids) != 1 {
		t.Fatalf("resumed run recorded %d traces, want 1", len(ids))
	}
	kinds := make(map[trace.Kind]int)
	for _, s := range spans {
		if s.Trace == ids[0] {
			kinds[s.Kind]++
		}
	}
	if kinds[trace.KindJobStart] != 1 || kinds[trace.KindJobEnd] != 1 {
		t.Errorf("resumed run: %d job_start and %d job_end spans, want 1 and 1",
			kinds[trace.KindJobStart], kinds[trace.KindJobEnd])
	}
	if kinds[trace.KindLoad] != 0 {
		t.Errorf("resumed run recorded %d load spans, want 0", kinds[trace.KindLoad])
	}
}

func TestResumeWithoutCheckpointFails(t *testing.T) {
	store := memstore.New(memstore.WithParts(2))
	t.Cleanup(func() { _ = store.Close() })
	e := NewEngine(store)
	_, err := e.Resume(checkpointChainJob("never-ran", 5, nil))
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestResumeRejectsMismatchedStateTables(t *testing.T) {
	store := memstore.New(memstore.WithParts(2))
	t.Cleanup(func() { _ = store.Close() })
	e := NewEngine(store, WithCheckpoints(2))
	if _, err := e.Run(checkpointChainJob("mismatch", 10, crashAfter(4))); err != nil {
		t.Fatal(err)
	}
	bad := checkpointChainJob("mismatch", 10, nil)
	bad.StateTables = []string{"some_other_table"}
	if _, err := e.Resume(bad); !errors.Is(err, ErrBadJob) {
		t.Errorf("err = %v, want ErrBadJob", err)
	}
}

func TestCheckpointedRunMatchesUninterrupted(t *testing.T) {
	// Reference: uninterrupted run.
	refStore := memstore.New(memstore.WithParts(4))
	t.Cleanup(func() { _ = refStore.Close() })
	if _, err := NewEngine(refStore).Run(checkpointChainJob("ref", 15, nil)); err != nil {
		t.Fatal(err)
	}
	refTab, _ := refStore.LookupTable("ref_state")
	want, _ := kvstore.Dump(refTab)

	// Crashed at several points, resumed each time.
	for _, crashStep := range []int{2, 5, 9, 14} {
		store := memstore.New(memstore.WithParts(4))
		e := NewEngine(store, WithCheckpoints(2))
		name := fmt.Sprintf("cr%d", crashStep)
		if _, err := e.Run(checkpointChainJob(name, 15, crashAfter(crashStep))); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Resume(checkpointChainJob(name, 15, nil)); err != nil {
			t.Fatalf("resume after crash at %d: %v", crashStep, err)
		}
		tab, _ := store.LookupTable(name + "_state")
		got, _ := kvstore.Dump(tab)
		if len(got) != len(want) {
			t.Errorf("crash at %d: %d states, want %d", crashStep, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("crash at %d: state[%v] = %v, want %v", crashStep, k, got[k], v)
			}
		}
		_ = store.Close()
	}
}

func TestCheckpointWithAggregators(t *testing.T) {
	store := memstore.New(memstore.WithParts(3))
	t.Cleanup(func() { _ = store.Close() })
	e := NewEngine(store, WithCheckpoints(2))
	build := func(aborter Aborter) *Job {
		return &Job{
			Name:        "agg-ckpt",
			StateTables: []string{"ac_state"},
			Aggregators: map[string]Aggregator{"steps": IntSum{}},
			Aborter:     aborter,
			Compute: ComputeFunc(func(ctx *Context) bool {
				ctx.AggregateValue("steps", 1)
				return ctx.StepNum() < 8
			}),
			Loaders: []Loader{&EnableLoader{Keys: []any{1}}},
		}
	}
	if _, err := e.Run(build(crashAfter(5))); err != nil {
		t.Fatal(err)
	}
	res, err := e.Resume(build(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 8 {
		t.Errorf("Steps = %d, want 8", res.Steps)
	}
	if res.Aggregates["steps"] != 1 {
		t.Errorf("final step aggregate = %v, want 1", res.Aggregates["steps"])
	}
}

func TestCheckpointSurvivesProcessRestartOnDiskStore(t *testing.T) {
	dir := t.TempDir()
	name := "durable"

	// "Process one": run with checkpoints, crash.
	s1, err := diskstore.New(dir, diskstore.WithParts(2))
	if err != nil {
		t.Fatal(err)
	}
	e1 := NewEngine(s1, WithCheckpoints(2))
	if _, err := e1.Run(checkpointChainJob(name, 12, crashAfter(6))); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Process two": reopen the store (replaying the logs) and resume.
	s2, err := diskstore.New(dir, diskstore.WithParts(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s2.Close() })
	// Reopen the tables the job and its checkpoint used.
	reopenCheckpoint(t, s2, checkpointChainJob(name, 12, nil), 2, []bool{false})
	e2 := NewEngine(s2, WithCheckpoints(2))
	res, err := e2.Resume(checkpointChainJob(name, 12, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 12 {
		t.Errorf("Steps = %d, want 12", res.Steps)
	}
	tab, _ := s2.LookupTable(name + "_state")
	for i := 0; i < 12; i++ {
		if v, ok, _ := tab.Get(i); !ok || v != i+1 {
			t.Errorf("state[%d] = %v, %v", i, v, ok)
		}
	}
}

func TestCheckpointDisabledByDefault(t *testing.T) {
	store := memstore.New(memstore.WithParts(2))
	t.Cleanup(func() { _ = store.Close() })
	e := NewEngine(store)
	var invocations atomic.Int64
	job := checkpointChainJob("nockpt", 6, nil)
	inner := job.Compute
	job.Compute = ComputeFunc(func(ctx *Context) bool {
		invocations.Add(1)
		return inner.Compute(ctx)
	})
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.LookupTable(ckptMetaTable("nockpt")); ok {
		t.Error("checkpoint table created without WithCheckpoints")
	}
}

func TestResumeRejectsTornCheckpointMeta(t *testing.T) {
	store := memstore.New(memstore.WithParts(4))
	t.Cleanup(func() { _ = store.Close() })
	e := NewEngine(store, WithCheckpoints(3))
	if _, err := e.Run(checkpointChainJob("torn", 20, crashAfter(7))); err != nil {
		t.Fatal(err)
	}

	// Tear the sealed meta record: truncate it mid-body, as a primary dying
	// mid-write would. Resume must reject it instead of decoding garbage.
	metaTab, ok := store.LookupTable(ckptMetaTable("torn"))
	if !ok {
		t.Fatal("no checkpoint meta table")
	}
	raw, ok, err := metaTab.Get("meta")
	if err != nil || !ok {
		t.Fatalf("meta record: ok=%v err=%v", ok, err)
	}
	sealed := raw.([]byte)
	if err := metaTab.Put("meta", sealed[:len(sealed)/2]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Resume(checkpointChainJob("torn", 20, nil)); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("torn meta: err = %v, want ErrCheckpointMismatch", err)
	}

	// A flipped byte (corruption, not truncation) is also rejected.
	bad := append([]byte(nil), sealed...)
	bad[len(bad)/3] ^= 0xff
	if err := metaTab.Put("meta", bad); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Resume(checkpointChainJob("torn", 20, nil)); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("corrupt meta: err = %v, want ErrCheckpointMismatch", err)
	}

	// The intact record still resumes: the seal round-trips.
	if err := metaTab.Put("meta", sealed); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Resume(checkpointChainJob("torn", 20, nil)); err != nil {
		t.Errorf("intact meta failed to resume: %v", err)
	}
}

func TestResumeAcceptsLegacyUnsealedMeta(t *testing.T) {
	store := memstore.New(memstore.WithParts(4))
	t.Cleanup(func() { _ = store.Close() })
	e := NewEngine(store, WithCheckpoints(3))
	if _, err := e.Run(checkpointChainJob("legacy", 20, crashAfter(7))); err != nil {
		t.Fatal(err)
	}
	metaTab, _ := store.LookupTable(ckptMetaTable("legacy"))
	raw, _, _ := metaTab.Get("meta")
	meta, err := openMeta(raw.([]byte))
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the record in the pre-checksum format: the bare struct.
	if err := metaTab.Put("meta", meta); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Resume(checkpointChainJob("legacy", 20, nil)); err != nil {
		t.Errorf("legacy meta failed to resume: %v", err)
	}
}
