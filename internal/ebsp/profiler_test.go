package ebsp

import (
	"context"
	"testing"
	"time"

	"ripple/internal/metrics"
	"ripple/internal/profile"
)

func TestProfilerSyncRecordsMatchComputeHistogram(t *testing.T) {
	m := &metrics.Collector{}
	rec := profile.New(1024)
	e := newEngine(t, WithMetrics(m), WithProfiler(rec))
	job := &Job{
		Name:        "profchain",
		StateTables: []string{"profchain_state"},
		Compute:     &chainCompute{limit: 10},
		Loaders:     []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 0}}}},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}

	snap := rec.Snapshot()
	// One record per (step, part): the store has 4 parts.
	if want := res.Steps * 4; len(snap) != want {
		t.Fatalf("records = %d, want %d (steps %d x 4 parts)", len(snap), want, res.Steps)
	}
	seen := make(map[[2]int]bool)
	var computeSum, msgsIn int64
	for _, p := range snap {
		if p.Job != "profchain" {
			t.Fatalf("record for wrong job %q", p.Job)
		}
		if p.Step < 1 || p.Step > res.Steps || p.Part < 0 || p.Part > 3 {
			t.Fatalf("record out of range: %+v", p)
		}
		if seen[[2]int{p.Step, p.Part}] {
			t.Fatalf("duplicate record for step %d part %d", p.Step, p.Part)
		}
		seen[[2]int{p.Step, p.Part}] = true
		computeSum += p.ComputeNS
		msgsIn += p.MsgsIn
	}

	// The profiler's per-part compute spans are the same measurements the
	// part_compute histogram observes; their totals must agree within 10%.
	histSum := m.PartComputes().Sum()
	if histSum == 0 {
		t.Fatal("part_compute histogram empty")
	}
	diff := computeSum - histSum
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.10*float64(histSum) {
		t.Errorf("profiler compute sum %d vs histogram sum %d: diff > 10%%", computeSum, histSum)
	}

	// The chain delivers one message per step.
	if msgsIn != int64(res.Steps) {
		t.Errorf("msgs_in total = %d, want %d", msgsIn, res.Steps)
	}

	// Store puts must be attributed: the chain writes state once per step.
	var puts int64
	for _, p := range snap {
		puts += p.StorePuts
	}
	if puts < int64(res.Steps) {
		t.Errorf("store_puts total = %d, want >= %d", puts, res.Steps)
	}
}

func TestProfilerFindsDeliberateStraggler(t *testing.T) {
	rec := profile.New(1024)
	m := &metrics.Collector{}
	e := newEngine(t, WithMetrics(m), WithProfiler(rec))
	const slowKey = 3
	job := &Job{
		Name:        "skewed",
		StateTables: []string{"skewed_state"},
		Compute: ComputeFunc(func(ctx *Context) bool {
			if ctx.Key().(int) == slowKey {
				time.Sleep(2 * time.Millisecond) // deliberate skew
			}
			for _, msg := range ctx.InputMessages() {
				if n := msg.(int); n < 5 {
					ctx.Send(ctx.Key(), n+1)
				}
			}
			return false
		}),
		Loaders: []Loader{&MessageLoader{Messages: []InitialMessage{
			{Key: 0, Message: 0}, {Key: 1, Message: 0}, {Key: 2, Message: 0}, {Key: slowKey, Message: 0},
		}}},
	}
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	tab, ok := e.Store().LookupTable("skewed_state")
	if !ok {
		t.Fatal("state table missing")
	}
	wantPart := tab.PartOf(slowKey)

	rep := profile.AnalyzeRecorder(rec, 5)
	top, ok := rep.TopStraggler()
	if !ok {
		t.Fatal("no straggler ranking")
	}
	if top.Part != wantPart {
		t.Errorf("top straggler = part %d, want %d (home of slow key)", top.Part, wantPart)
	}
	if rep.MaxSkewRatio < 2 {
		t.Errorf("max skew ratio = %v, want >= 2 with a sleeping part", rep.MaxSkewRatio)
	}
	// The live gauges must reflect the skew too.
	if got := m.StragglerPart().Load(); got != int64(wantPart) {
		t.Errorf("straggler gauge = %d, want %d", got, wantPart)
	}
	if m.StepSkewRatio().Load() < 2 {
		t.Errorf("skew gauge = %v, want >= 2", m.StepSkewRatio().Load())
	}
	// And the hot-key ranking must surface the slow key's traffic.
	if keys := rec.HotKeys(10); len(keys) == 0 {
		t.Error("no hot keys observed")
	}
}

func TestProfilerNoSyncRecords(t *testing.T) {
	rec := profile.New(1024)
	e := newEngine(t, WithProfiler(rec))
	job := &Job{
		Name:        "profnosync",
		StateTables: []string{"profnosync_state"},
		Properties:  Properties{Incremental: true},
		Compute:     &chainCompute{limit: 20},
		Loaders:     []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 0}}}},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy.Sync {
		t.Fatal("job should have run no-sync")
	}
	snap := rec.Snapshot()
	if len(snap) == 0 {
		t.Fatal("no records from no-sync run")
	}
	parts := make(map[int]bool)
	var delivered int64
	for _, p := range snap {
		if p.Step != 0 {
			t.Fatalf("no-sync record has step %d, want 0", p.Step)
		}
		if p.QueueWaitNS <= 0 {
			t.Errorf("part %d record has no queue wait", p.Part)
		}
		parts[p.Part] = true
		delivered += p.MsgsIn
	}
	if len(parts) != 4 {
		t.Errorf("records cover %d parts, want 4", len(parts))
	}
	if delivered < 21 {
		t.Errorf("delivered = %d, want >= 21 (chain of 21 messages)", delivered)
	}
	rep := profile.AnalyzeRecorder(rec, 5)
	if rep.NoSyncParts != len(snap) {
		t.Errorf("NoSyncParts = %d, want %d", rep.NoSyncParts, len(snap))
	}
}

func TestProfilerRunAnywhereRecordsWorkerSlots(t *testing.T) {
	rec := profile.New(1024)
	e := newEngine(t, WithProfiler(rec))
	job := &Job{
		Name:        "profsteal",
		StateTables: []string{"profsteal_state"},
		Properties:  Properties{OneMsg: true, NoContinue: true, RareState: true},
		Compute: ComputeFunc(func(ctx *Context) bool {
			for _, msg := range ctx.InputMessages() {
				if n := msg.(int); n < 3 {
					ctx.Send(ctx.Key().(int)+1, n+1)
				}
			}
			return false
		}),
		Loaders: []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 0}}}},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Strategy.RunAnywhere {
		t.Skip("strategy did not derive run-anywhere")
	}
	snap := rec.Snapshot()
	if len(snap) == 0 {
		t.Fatal("no records from run-anywhere run")
	}
	for _, p := range snap {
		// Worker slots are numbered beyond the real parts.
		if p.Part < 4 {
			t.Fatalf("run-anywhere record for real part %d, want worker slots >= 4: %+v", p.Part, p)
		}
	}
}

// Run-anywhere worker slots are published like parts: every slot's profile
// record has its part-compute and barrier-wait samples.
func TestRunAnywhereFeedsCollector(t *testing.T) {
	m := &metrics.Collector{}
	rec := profile.New(1024)
	e := newEngine(t, WithMetrics(m), WithProfiler(rec))
	res, err := e.Run(&Job{
		Name:        "stealcol",
		StateTables: []string{"stealcol_state"},
		Properties:  Properties{OneMsg: true, NoContinue: true, RareState: true},
		Compute:     &forwardOnce{hops: 6},
		Loaders:     []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 0}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Strategy.RunAnywhere {
		t.Fatal("run-anywhere not selected")
	}
	var slots int64
	for _, p := range rec.Snapshot() {
		if p.Part >= 4 {
			slots++
		}
	}
	if slots == 0 {
		t.Fatal("no worker-slot records")
	}
	if got := m.PartComputes().Count(); got != slots {
		t.Errorf("part-compute samples = %d, want one per worker-slot record (%d)", got, slots)
	}
	if got := m.BarrierWaits().Count(); got != slots {
		t.Errorf("barrier-wait samples = %d, want %d", got, slots)
	}
}

// The live skew gauge and the profile report read one step the same way,
// even when the median part did no work: one busy part among idle ones.
func TestSkewGaugeAgreesWithReport(t *testing.T) {
	m := &metrics.Collector{}
	rec := profile.New(16)
	run := &jobRun{
		engine: &Engine{metrics: m, prof: rec},
		job:    &Job{Name: "skewagree"},
		ctx:    context.Background(),
		log:    discardLog,
	}
	run.observePartStats(1, 0, []*partStepResult{{dur: 4 * time.Millisecond}, {}, {}, {}})
	rep := profile.AnalyzeRecorder(rec, 5)
	if len(rep.Steps) != 1 {
		t.Fatalf("report steps = %d, want 1", len(rep.Steps))
	}
	if gauge, report := m.StepSkewRatio().Load(), rep.Steps[0].SkewRatio; gauge != report {
		t.Errorf("skew gauge = %v, report = %v: one step, two readings", gauge, report)
	}
}
