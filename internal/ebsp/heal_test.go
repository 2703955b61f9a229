package ebsp

import (
	"errors"
	"testing"
	"time"

	"ripple/internal/chaos"
	"ripple/internal/gridstore"
	"ripple/internal/kvstore"
	"ripple/internal/memstore"
	"ripple/internal/metrics"
	"ripple/internal/mq"
)

func TestRetryOpRecoversTransientsAndDetags(t *testing.T) {
	e := NewEngine(memstore.New(), WithRecoveryRetries(3))
	t.Cleanup(func() { _ = e.Store().Close() })
	run := &jobRun{engine: e, job: &Job{Name: "j"}, log: discardLog}

	calls := 0
	err := run.retry(1, 0, func() error {
		calls++
		if calls < 3 {
			return kvstore.ErrTransient
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("retry = %v after %d calls, want success on 3rd", err, calls)
	}

	// A persistent transient exhausts the budget — and the returned error
	// must NOT be transient anymore, or an outer boundary could retry an
	// operation whose effects are unknown.
	calls = 0
	err = run.retry(1, 0, func() error { calls++; return mq.ErrTransient })
	if err == nil || calls != 4 {
		t.Fatalf("retry = %v after %d calls, want failure after 4", err, calls)
	}
	if isTransient(err) {
		t.Errorf("exhausted error still transient: %v", err)
	}

	// Fatal errors pass through untouched, without retries.
	fatal := errors.New("disk on fire")
	calls = 0
	if err := run.retry(1, 0, func() error { calls++; return fatal }); !errors.Is(err, fatal) || calls != 1 {
		t.Errorf("fatal: err=%v calls=%d", err, calls)
	}
}

func TestEngineSelfHealsTransientStoreFaults(t *testing.T) {
	m := &metrics.Collector{}
	inj := chaos.NewInjector(chaos.Schedule{Seed: 11, StoreErrRate: 0.05, AgentErrRate: 0.05},
		chaos.WithMetrics(m))
	store := chaos.Wrap(memstore.New(memstore.WithParts(4)), inj)
	t.Cleanup(func() { _ = store.Close() })

	e := NewEngine(store, WithMetrics(m))
	res, err := e.Run(checkpointChainJob("selfheal", 20, nil))
	if err != nil {
		t.Fatalf("run under 5%% transient faults: %v", err)
	}
	if res.Steps != 20 {
		t.Errorf("Steps = %d, want 20", res.Steps)
	}
	tab, _ := store.LookupTable("selfheal_state")
	for i := 0; i < 20; i++ {
		if v, ok, _ := tab.Get(i); !ok || v != i+1 {
			t.Errorf("state[%d] = %v, %v", i, v, ok)
		}
	}
	snap := m.Snapshot()
	if snap.FaultsInjected == 0 {
		t.Error("no faults injected — schedule not exercised")
	}
	if snap.Retries == 0 {
		t.Error("faults injected but no retries counted")
	}
}

func TestEngineAutoRecoversFromPrimaryKill(t *testing.T) {
	m := &metrics.Collector{}
	gs := gridstore.New(gridstore.WithParts(4), gridstore.WithReplicas(2), gridstore.WithMetrics(m))
	inj := chaos.NewInjector(chaos.Schedule{
		Seed: 5,
		Kills: []chaos.Kill{
			{Table: "killed_state", Part: 1, AfterDispatches: 20},
			{Table: "killed_state", Part: 2, AfterDispatches: 55},
		},
	}, chaos.WithMetrics(m))
	store := chaos.Wrap(gs, inj)
	t.Cleanup(func() { _ = store.Close() })

	e := NewEngine(store, WithMetrics(m), WithCheckpoints(3))
	// Run — not Resume — must survive both kills by healing and re-running
	// from the latest checkpoint on its own.
	res, err := e.Run(checkpointChainJob("killed", 25, nil))
	if err != nil {
		t.Fatalf("run under primary kills: %v", err)
	}
	if res.Steps != 25 {
		t.Errorf("Steps = %d, want 25", res.Steps)
	}
	tab, _ := store.LookupTable("killed_state")
	for i := 0; i < 25; i++ {
		if v, ok, _ := tab.Get(i); !ok || v != i+1 {
			t.Errorf("state[%d] = %v, %v", i, v, ok)
		}
	}
	recs := inj.Records()
	kills := 0
	for _, r := range recs {
		if r.Kind == "kill" {
			kills++
		}
	}
	if kills != 2 {
		t.Errorf("kills fired = %d, want 2 (records: %v)", kills, recs)
	}
	snap := m.Snapshot()
	if snap.Failovers < 2 {
		t.Errorf("Failovers = %d, want >= 2", snap.Failovers)
	}
	if snap.StepsRerun == 0 {
		t.Error("recovery re-ran no steps")
	}
}

func TestRunWithoutCheckpointsDoesNotMaskKill(t *testing.T) {
	// Without checkpoints there is nothing to recover from: the failover is
	// sensed but the run must simply continue on the surviving replica (the
	// non-transactional write path writes to all alive replicas, so a single
	// kill with a survivor loses nothing).
	gs := gridstore.New(gridstore.WithParts(4), gridstore.WithReplicas(2))
	inj := chaos.NewInjector(chaos.Schedule{
		Seed:  5,
		Kills: []chaos.Kill{{Table: "nockpt_kill_state", Part: 0, AfterDispatches: 15}},
	})
	store := chaos.Wrap(gs, inj)
	t.Cleanup(func() { _ = store.Close() })
	res, err := NewEngine(store).Run(checkpointChainJob("nockpt_kill", 15, nil))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Steps != 15 {
		t.Errorf("Steps = %d, want 15", res.Steps)
	}
	if gs.Failovers() != 1 {
		t.Errorf("Failovers = %d, want 1", gs.Failovers())
	}
}

func TestResumeRejectsMismatchedJobSpec(t *testing.T) {
	store := memstore.New(memstore.WithParts(2))
	t.Cleanup(func() { _ = store.Close() })
	e := NewEngine(store, WithCheckpoints(2))
	if _, err := e.Run(checkpointChainJob("specck", 10, crashAfter(4))); err != nil {
		t.Fatal(err)
	}

	// Same checkpoint, different step bound: the checkpoint does not match
	// the job being resumed.
	bad := checkpointChainJob("specck", 10, nil)
	bad.MaxSteps = 7
	_, err := e.Resume(bad)
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("MaxSteps mismatch err = %v, want ErrCheckpointMismatch", err)
	}
	if !errors.Is(err, ErrBadJob) {
		t.Errorf("ErrCheckpointMismatch must wrap ErrBadJob, got %v", err)
	}

	// A matching spec still resumes fine.
	if _, err := e.Resume(checkpointChainJob("specck", 10, nil)); err != nil {
		t.Fatalf("matching resume: %v", err)
	}
}

func TestNoSyncSurvivesDuplicationAndJitter(t *testing.T) {
	// Satellite property: per-(sender,receiver) FIFO and Huang's quiescence
	// hold under message duplication and latency jitter — the run terminates
	// and computes exactly the fault-free answer, because duplicates are
	// shed by the per-sender sequence and FIFO is preserved by the queue.
	build := func(tabName string) *Job {
		return &Job{
			Name:        "dupjob",
			StateTables: []string{tabName},
			Properties:  Properties{Incremental: true},
			Compute: ComputeFunc(func(ctx *Context) bool {
				for _, m := range ctx.InputMessages() {
					n := m.(int)
					cur := 0
					if v, ok := ctx.ReadState(0); ok {
						cur = v.(int)
					}
					ctx.WriteState(0, cur+n)
					if n > 1 {
						k := ctx.Key().(int)
						ctx.Send(2*k+1, n/2)
						ctx.Send(2*k+2, n-n/2)
					}
				}
				return false
			}),
			Loaders: []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 256}}}},
		}
	}

	ref := memstore.New(memstore.WithParts(4))
	t.Cleanup(func() { _ = ref.Close() })
	if _, err := NewEngine(ref).Run(build("ref_state")); err != nil {
		t.Fatal(err)
	}
	refTab, _ := ref.LookupTable("ref_state")
	want, _ := kvstore.Dump(refTab)

	m := &metrics.Collector{}
	inj := chaos.NewInjector(chaos.Schedule{
		Seed:      21,
		MQErrRate: 0.05,
		MQDupRate: 0.25,
		MQDelay:   300 * time.Microsecond, MQDelayRate: 0.3,
	}, chaos.WithMetrics(m))
	store := chaos.Wrap(memstore.New(memstore.WithParts(4)), inj)
	t.Cleanup(func() { _ = store.Close() })
	e := NewEngine(store, WithMetrics(m), WithMQ(mq.NewSystem(mq.WithFaults(inj))))
	res, err := e.Run(build("dup_state"))
	if err != nil {
		t.Fatalf("no-sync under chaos: %v", err)
	}
	if res.Strategy.Sync {
		t.Fatal("expected no-sync execution")
	}

	tab, _ := store.LookupTable("dup_state")
	got, _ := kvstore.Dump(tab)
	if len(got) != len(want) {
		t.Fatalf("state size %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("state[%v] = %v, want %v", k, got[k], v)
		}
	}
	dups := false
	for _, r := range inj.Records() {
		if r.Kind == "mq.dup" {
			dups = true
		}
	}
	if !dups {
		t.Error("schedule injected no duplicates — property not exercised")
	}
}

func TestRetryBackoffJitterDeterministicAndSpread(t *testing.T) {
	distinct := make(map[time.Duration]bool)
	for part := 0; part < 8; part++ {
		for attempt := 1; attempt <= 3; attempt++ {
			base := retryBackoff(attempt)
			d1 := backoffFor("job", 2, part, attempt)
			if d2 := backoffFor("job", 2, part, attempt); d1 != d2 {
				t.Fatalf("same coordinates diverged: %v vs %v", d1, d2)
			}
			if d1 < base/2 || d1 >= base+base/2 {
				t.Fatalf("backoff %v outside [%v, %v)", d1, base/2, base+base/2)
			}
			distinct[d1] = true
		}
	}
	// Different parts must not retry in lockstep: the jitter decorrelates.
	if len(distinct) < 12 {
		t.Errorf("only %d distinct backoffs across 24 (part, attempt) cells", len(distinct))
	}
	// A different step yields a different schedule somewhere.
	var diverged bool
	for part := 0; part < 8 && !diverged; part++ {
		diverged = backoffFor("job", 2, part, 1) != backoffFor("job", 3, part, 1)
	}
	if !diverged {
		t.Error("steps 2 and 3 produced identical schedules")
	}
}
