package ebsp

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"ripple/internal/gridstore"
	"ripple/internal/kvstore"
	"ripple/internal/memstore"
	"ripple/internal/metrics"
)

func TestPlanForDerivations(t *testing.T) {
	cases := []struct {
		name string
		job  Job
		want Strategy
	}{
		{
			"default job",
			Job{},
			Strategy{Sort: false, Collect: true, RunAnywhere: false, Sync: true},
		},
		{
			"needs order",
			Job{Properties: Properties{NeedsOrder: true}},
			Strategy{Sort: true, Collect: true, Sync: true},
		},
		{
			"no-collect",
			Job{Properties: Properties{OneMsg: true, NoContinue: true}},
			Strategy{Collect: false, Sync: true},
		},
		{
			"run anywhere",
			Job{Properties: Properties{OneMsg: true, NoContinue: true, RareState: true}},
			Strategy{Collect: false, RunAnywhere: true, Sync: true},
		},
		{
			"no-sync via no-collect and no-ss-order",
			Job{Properties: Properties{OneMsg: true, NoContinue: true, NoStepOrder: true}},
			Strategy{Collect: false, Sync: false},
		},
		{
			"no-sync via incremental",
			Job{Properties: Properties{Incremental: true}},
			Strategy{Collect: true, Sync: false},
		},
		{
			"incremental but has aggregators keeps sync",
			Job{
				Properties:  Properties{Incremental: true},
				Aggregators: map[string]Aggregator{"x": IntSum{}},
			},
			Strategy{Collect: true, Sync: true},
		},
		{
			"incremental but has aborter keeps sync",
			Job{
				Properties: Properties{Incremental: true},
				Aborter:    AborterFunc(func(int, map[string]any) bool { return false }),
			},
			Strategy{Collect: true, Sync: true},
		},
		{
			"deterministic enables fast recovery",
			Job{Properties: Properties{Deterministic: true}},
			Strategy{Collect: true, Sync: true, FastRecovery: true},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := planFor(&c.job); got != c.want {
				t.Errorf("planFor = %+v, want %+v", got, c.want)
			}
		})
	}
}

func TestClampOnlyConservative(t *testing.T) {
	derived := Strategy{Sort: false, Collect: false, RunAnywhere: true, Sync: false, FastRecovery: true}
	// An override may add sort/collect/sync and drop run-anywhere/recovery.
	over := Strategy{Sort: true, Collect: true, RunAnywhere: false, Sync: true, FastRecovery: false}
	if got := over.Clamp(derived); got != over {
		t.Errorf("conservative override clamped to %+v", got)
	}
	// The unsafe directions are reverted.
	derived2 := Strategy{Sort: true, Collect: true, RunAnywhere: false, Sync: true, FastRecovery: false}
	unsafe := Strategy{Sort: false, Collect: false, RunAnywhere: true, Sync: false, FastRecovery: true}
	if got := unsafe.Clamp(derived2); got != derived2 {
		t.Errorf("unsafe override not clamped: %+v", got)
	}
}

// forwardOnce forwards a message one hop then stops; safe for no-collect.
type forwardOnce struct {
	hops int
}

func (f *forwardOnce) Compute(ctx *Context) bool {
	for _, m := range ctx.InputMessages() {
		n := m.(int)
		ctx.WriteState(0, n)
		if n < f.hops {
			ctx.Send(ctx.Key().(int)+1, n+1)
		}
	}
	return false
}

func TestNoCollectPathCorrect(t *testing.T) {
	e := newEngine(t)
	job := &Job{
		Name:        "nocollect",
		StateTables: []string{"nc_state"},
		Properties:  Properties{OneMsg: true, NoContinue: true},
		Compute:     &forwardOnce{hops: 8},
		Loaders:     []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 0}}}},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy.Collect {
		t.Error("collect not disabled for one-msg + no-continue job")
	}
	tab, _ := e.Store().LookupTable("nc_state")
	for i := 0; i <= 8; i++ {
		if v, ok, _ := tab.Get(i); !ok || v != i {
			t.Errorf("state[%d] = %v, %v", i, v, ok)
		}
	}
}

func TestRunAnywherePathCorrect(t *testing.T) {
	e := newEngine(t)
	job := &Job{
		Name:        "runanywhere",
		StateTables: []string{"ra_state"},
		Properties:  Properties{OneMsg: true, NoContinue: true, RareState: true},
		Compute:     &forwardOnce{hops: 12},
		Loaders:     []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 0}}}},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Strategy.RunAnywhere {
		t.Fatal("run-anywhere not selected")
	}
	tab, _ := e.Store().LookupTable("ra_state")
	for i := 0; i <= 12; i++ {
		if v, ok, _ := tab.Get(i); !ok || v != i {
			t.Errorf("state[%d] = %v, %v", i, v, ok)
		}
	}
}

func TestStrategyOverrideDisablesRunAnywhere(t *testing.T) {
	e := newEngine(t, WithStrategyOverride(func(s Strategy) Strategy {
		s.RunAnywhere = false
		return s
	}))
	job := &Job{
		Name:        "ra-off",
		StateTables: []string{"rao_state"},
		Properties:  Properties{OneMsg: true, NoContinue: true, RareState: true},
		Compute:     &forwardOnce{hops: 4},
		Loaders:     []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 0}}}},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy.RunAnywhere {
		t.Error("override did not disable run-anywhere")
	}
}

// incrementalChain is a no-sync-eligible chain job: it tolerates any message
// grouping (each message is independent).
type incrementalChain struct {
	hops int
}

func (f *incrementalChain) Compute(ctx *Context) bool {
	for _, m := range ctx.InputMessages() {
		n := m.(int)
		ctx.WriteState(0, n)
		if n < f.hops {
			ctx.Send(ctx.Key().(int)+1, n+1)
		}
	}
	return false
}

func TestNoSyncExecution(t *testing.T) {
	e := newEngine(t)
	job := &Job{
		Name:        "nosync",
		StateTables: []string{"ns_state"},
		Properties:  Properties{Incremental: true},
		Compute:     &incrementalChain{hops: 20},
		Loaders:     []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 0}}}},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy.Sync {
		t.Fatal("no-sync not selected for incremental job")
	}
	if res.Steps != 0 {
		t.Errorf("Steps = %d, want 0 (no steps without barriers)", res.Steps)
	}
	tab, _ := e.Store().LookupTable("ns_state")
	for i := 0; i <= 20; i++ {
		if v, ok, _ := tab.Get(i); !ok || v != i {
			t.Errorf("state[%d] = %v, %v", i, v, ok)
		}
	}
}

func TestNoSyncMatchesSyncResults(t *testing.T) {
	// The same incremental job run with and without barriers must produce
	// identical final state.
	build := func(tabName string) *Job {
		return &Job{
			Name:        "equiv-" + tabName,
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
						// Split the value across two children.
						k := ctx.Key().(int)
						ctx.Send(2*k+1, n/2)
						ctx.Send(2*k+2, n-n/2)
					}
				}
				return false
			}),
			Loaders: []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 64}}}},
		}
	}

	eNoSync := newEngine(t)
	resNS, err := eNoSync.Run(build("eq_state"))
	if err != nil {
		t.Fatal(err)
	}
	if resNS.Strategy.Sync {
		t.Fatal("expected no-sync")
	}

	eSync := newEngine(t, WithStrategyOverride(func(s Strategy) Strategy {
		s.Sync = true
		return s
	}))
	resS, err := eSync.Run(build("eq_state"))
	if err != nil {
		t.Fatal(err)
	}
	if !resS.Strategy.Sync {
		t.Fatal("override did not force sync")
	}

	tabNS, _ := eNoSync.Store().LookupTable("eq_state")
	tabS, _ := eSync.Store().LookupTable("eq_state")
	dumpNS, _ := kvstore.Dump(tabNS)
	dumpS, _ := kvstore.Dump(tabS)
	if len(dumpNS) != len(dumpS) {
		t.Fatalf("state sizes differ: %d vs %d", len(dumpNS), len(dumpS))
	}
	for k, v := range dumpS {
		if dumpNS[k] != v {
			t.Errorf("key %v: nosync %v, sync %v", k, dumpNS[k], v)
		}
	}
}

func TestNoSyncDirectOutput(t *testing.T) {
	e := newEngine(t)
	out := &CollectExporter{}
	job := &Job{
		Name:         "nosync-direct",
		StateTables:  []string{"nsd_state"},
		Properties:   Properties{Incremental: true},
		DirectOutput: out,
		Compute: ComputeFunc(func(ctx *Context) bool {
			for _, m := range ctx.InputMessages() {
				ctx.DirectOutput(ctx.Key(), m)
			}
			return false
		}),
		Loaders: []Loader{&MessageLoader{Messages: []InitialMessage{
			{Key: 1, Message: "a"}, {Key: 2, Message: "b"},
		}}},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy.Sync {
		t.Fatal("expected no-sync")
	}
	pairs := out.Pairs()
	if len(pairs) != 2 || pairs[1] != "a" || pairs[2] != "b" {
		t.Errorf("direct output = %v", pairs)
	}
}

func TestNoSyncCreateState(t *testing.T) {
	e := newEngine(t)
	job := &Job{
		Name:        "nosync-create",
		StateTables: []string{"nsc_state"},
		Properties:  Properties{Incremental: true},
		Compute: ComputeFunc(func(ctx *Context) bool {
			for range ctx.InputMessages() {
				ctx.CreateState(0, 777, "made")
			}
			return false
		}),
		Loaders: []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 1, Message: "go"}}}},
	}
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	tab, _ := e.Store().LookupTable("nsc_state")
	if v, ok, _ := tab.Get(777); !ok || v != "made" {
		t.Errorf("created state = %v, %v", v, ok)
	}
}

func TestNoSyncComputeErrorPropagates(t *testing.T) {
	e := newEngine(t)
	job := &Job{
		Name:        "nosync-panic",
		StateTables: []string{"nsp_state"},
		Properties:  Properties{Incremental: true},
		Compute: ComputeFunc(func(ctx *Context) bool {
			panic("kaboom")
		}),
		Loaders: []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 1, Message: "go"}}}},
	}
	if _, err := e.Run(job); err == nil {
		t.Error("panicking no-sync compute returned nil error")
	}
}

func TestFastRecoveryReplaysFailedShard(t *testing.T) {
	store := gridstore.New(gridstore.WithParts(4), gridstore.WithReplicas(2))
	t.Cleanup(func() { _ = store.Close() })
	e := NewEngine(store)

	var failOnce sync.Once
	var sawFailure atomic.Bool
	job := &Job{
		Name:        "recover",
		StateTables: []string{"rc_state"},
		Properties:  Properties{Deterministic: true},
		Compute: ComputeFunc(func(ctx *Context) bool {
			for _, m := range ctx.InputMessages() {
				n := m.(int)
				ctx.WriteState(0, n)
				if ctx.StepNum() == 2 {
					// Kill this shard's primary mid-step, exactly once. The
					// step's transaction must roll back and be replayed.
					failOnce.Do(func() {
						tab, _ := store.LookupTable("rc_state")
						part := tab.PartOf(ctx.Key())
						if err := store.FailPrimary("rc_state", part); err != nil {
							t.Errorf("FailPrimary: %v", err)
						}
						sawFailure.Store(true)
					})
				}
				if n < 6 {
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
	if !res.Strategy.FastRecovery {
		t.Fatal("fast recovery not selected")
	}
	if !sawFailure.Load() {
		t.Fatal("failure was never injected")
	}
	if res.Recoveries < 1 {
		t.Errorf("Recoveries = %d, want >= 1", res.Recoveries)
	}
	tab, _ := store.LookupTable("rc_state")
	for i := 0; i <= 6; i++ {
		if v, ok, _ := tab.Get(i); !ok || v != i {
			t.Errorf("state[%d] = %v, %v (lost across failover)", i, v, ok)
		}
	}
}

func TestFastRecoveryFallsBackWithoutTransactions(t *testing.T) {
	// memstore is not Transactional: deterministic jobs run plain.
	e := NewEngine(memstore.New())
	job := &Job{
		Name:        "no-tx",
		StateTables: []string{"ntx_state"},
		Properties:  Properties{Deterministic: true},
		Compute:     ComputeFunc(func(ctx *Context) bool { return false }),
		Loaders:     []Loader{&EnableLoader{Keys: []any{1}}},
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy.FastRecovery {
		t.Error("fast recovery selected on a non-transactional store")
	}
}

func TestCollectVsNoCollectEquivalence(t *testing.T) {
	// The same one-msg/no-continue job with collect forced on must produce
	// identical state to the no-collect run.
	build := func(tab string) *Job {
		return &Job{
			Name:        "cnc-" + tab,
			StateTables: []string{tab},
			Properties:  Properties{OneMsg: true, NoContinue: true},
			Compute:     &forwardOnce{hops: 9},
			Loaders:     []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 0}}}},
		}
	}
	e1 := newEngine(t)
	if _, err := e1.Run(build("c1")); err != nil {
		t.Fatal(err)
	}
	e2 := newEngine(t, WithStrategyOverride(func(s Strategy) Strategy {
		s.Collect = true
		return s
	}))
	if _, err := e2.Run(build("c1")); err != nil {
		t.Fatal(err)
	}
	t1, _ := e1.Store().LookupTable("c1")
	t2, _ := e2.Store().LookupTable("c1")
	d1, _ := kvstore.Dump(t1)
	d2, _ := kvstore.Dump(t2)
	if len(d1) != len(d2) {
		t.Fatalf("sizes differ: %d vs %d", len(d1), len(d2))
	}
	for k, v := range d1 {
		if d2[k] != v {
			t.Errorf("key %v: %v vs %v", k, v, d2[k])
		}
	}
}

func TestConsecutiveRunsOnOneEngine(t *testing.T) {
	e := newEngine(t)
	for i := 0; i < 3; i++ {
		job := &Job{
			Name:        "again",
			StateTables: []string{"again_state"},
			Compute: ComputeFunc(func(ctx *Context) bool {
				cur := 0
				if v, ok := ctx.ReadState(0); ok {
					cur = v.(int)
				}
				ctx.WriteState(0, cur+1)
				return false
			}),
			Loaders: []Loader{&EnableLoader{Keys: []any{1}}},
		}
		if _, err := e.Run(job); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	tab, _ := e.Store().LookupTable("again_state")
	if v, _, _ := tab.Get(1); v != 3 {
		t.Errorf("state accumulates across runs: %v, want 3", v)
	}
}

func TestNoSyncIneligibleErrorType(t *testing.T) {
	// ErrNoSyncIneligible is part of the public error surface even though
	// Clamp prevents the engine from reaching an unsafe state internally.
	if ErrNoSyncIneligible == nil || !errors.Is(ErrNoSyncIneligible, ErrNoSyncIneligible) {
		t.Error("ErrNoSyncIneligible malformed")
	}
}

// A replayed part step is counted once: the Collector's invocation and
// combining counters under a mid-step primary failure equal the fault-free
// run's, because the rolled-back attempt's work is not the job's.
func TestReplayedPartStepCountsCommittedWork(t *testing.T) {
	run := func(kill bool) (metrics.Snapshot, *Result) {
		store := gridstore.New(gridstore.WithParts(4), gridstore.WithReplicas(2))
		t.Cleanup(func() { _ = store.Close() })
		m := &metrics.Collector{}
		var killOnce sync.Once
		var msgs []InitialMessage
		for k := 0; k < 8; k++ {
			msgs = append(msgs, InitialMessage{Key: k, Message: 1}, InitialMessage{Key: k, Message: 2})
		}
		res, err := NewEngine(store, WithMetrics(m)).Run(&Job{
			Name:        "replaycount",
			StateTables: []string{"rpc_state"},
			Combiner:    sumCombiner{},
			Properties:  Properties{Deterministic: true},
			Compute: ComputeFunc(func(ctx *Context) bool {
				k, step := ctx.Key().(int), ctx.StepNum()
				if kill && step == 2 && k == 3 {
					killOnce.Do(func() {
						tab, _ := store.LookupTable("rpc_state")
						if err := store.FailPrimary("rpc_state", tab.PartOf(k)); err != nil {
							t.Errorf("FailPrimary: %v", err)
						}
					})
				}
				total := 0
				for _, m := range ctx.InputMessages() {
					total += m.(int)
				}
				ctx.WriteState(0, total)
				if step < 4 {
					ctx.Send((k+1)%8, total)
					ctx.Send((k*3)%8, 1)
					ctx.Send((k+5)%8, 1)
				}
				return false
			}),
			Loaders: []Loader{&MessageLoader{Messages: msgs}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Snapshot(), res
	}
	want, _ := run(false)
	got, res := run(true)
	if !res.Strategy.FastRecovery || res.Recoveries < 1 {
		t.Fatalf("fast recovery = %v, recoveries = %d: no part step was replayed", res.Strategy.FastRecovery, res.Recoveries)
	}
	if got.ComputeInvocations != want.ComputeInvocations || got.MessagesCombined != want.MessagesCombined {
		t.Errorf("with a replay: compute_invocations %d, messages_combined %d; fault-free: %d, %d",
			got.ComputeInvocations, got.MessagesCombined, want.ComputeInvocations, want.MessagesCombined)
	}
}
