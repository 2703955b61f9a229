package ebsp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ripple/internal/gridstore"
	"ripple/internal/kvstore"
	"ripple/internal/memstore"
	"ripple/internal/metrics"
	"ripple/internal/trace"
)

// failNthAgent fails the n-th RunAgent dispatch (1-based) with a transient
// error before the agent runs; every other dispatch reaches the inner store.
// Embedding only kvstore.Store hides the inner store's optional interfaces,
// so a job over it takes the plain, non-transactional path.
type failNthAgent struct {
	kvstore.Store
	n     int64
	calls atomic.Int64
}

func (s *failNthAgent) RunAgent(table string, part int, agent kvstore.Agent) (any, error) {
	if s.calls.Add(1) == s.n {
		return nil, fmt.Errorf("dispatch %d: %w", s.n, kvstore.ErrTransient)
	}
	return s.Store.RunAgent(table, part, agent)
}

// killOnceJob is a chain job that fails the primary of the part holding its
// key at step killStep, once.
func killOnceJob(t *testing.T, name string, gs *gridstore.Store, killStep int, deterministic bool) *Job {
	var once sync.Once
	job := checkpointChainJob(name, 8, nil)
	inner := job.Compute
	job.Properties.Deterministic = deterministic
	job.Compute = ComputeFunc(func(ctx *Context) bool {
		if ctx.StepNum() == killStep {
			once.Do(func() {
				tab, _ := gs.LookupTable(name + "_state")
				if err := gs.FailPrimary(name+"_state", tab.PartOf(ctx.Key())); err != nil {
					t.Errorf("FailPrimary: %v", err)
				}
			})
		}
		return inner.Compute(ctx)
	})
	return job
}

// recoveryKinds are the span kinds of the four recovery rungs.
var recoveryKinds = []trace.Kind{trace.KindRetry, trace.KindPartReplay, trace.KindFailoverRecovery, trace.KindResume}

// TestRecoveryLadder forces each recovery rung once on a sampled run and
// requires exactly one span of the rung's kind per event, matching the
// rung's counter, each carrying the run's trace ID and the rung's parent:
// the delayed (step, part) span for a retry or a replay, the job root for a
// failover rerun or a resume. A fresh run's causal chain stays complete.
func TestRecoveryLadder(t *testing.T) {
	cases := []struct {
		name string
		kind trace.Kind
		// run forces the rung's event once, on engines built from opts.
		run func(t *testing.T, opts ...Option)
		// counter reads the rung's counter delta for the run.
		counter func(s metrics.Snapshot) int64
		// perStepPart: the parent is the (step, part) span, else the root.
		perStepPart bool
		// fresh: the run loads its input, so its causal chain is complete.
		fresh bool
	}{
		{
			name: "retry", kind: trace.KindRetry, perStepPart: true, fresh: true,
			run: func(t *testing.T, opts ...Option) {
				inner := memstore.New(memstore.WithParts(3))
				t.Cleanup(func() { _ = inner.Close() })
				store := &failNthAgent{Store: inner, n: 5}
				if _, err := NewEngine(store, opts...).Run(checkpointChainJob("ladder_retry", 6, nil)); err != nil {
					t.Fatal(err)
				}
			},
			counter: func(s metrics.Snapshot) int64 { return s.Retries },
		},
		{
			name: "part_replay", kind: trace.KindPartReplay, perStepPart: true, fresh: true,
			run: func(t *testing.T, opts ...Option) {
				gs := gridstore.New(gridstore.WithParts(4), gridstore.WithReplicas(2))
				t.Cleanup(func() { _ = gs.Close() })
				res, err := NewEngine(gs, opts...).Run(killOnceJob(t, "ladder_replay", gs, 3, true))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Strategy.FastRecovery {
					t.Fatal("deterministic job on gridstore did not select fast recovery")
				}
				if res.Recoveries != 1 {
					t.Errorf("Result.Recoveries = %d, want 1", res.Recoveries)
				}
			},
			counter: func(s metrics.Snapshot) int64 { return s.Recoveries },
		},
		{
			name: "failover_recovery", kind: trace.KindFailoverRecovery, fresh: true,
			run: func(t *testing.T, opts ...Option) {
				gs := gridstore.New(gridstore.WithParts(4), gridstore.WithReplicas(2))
				t.Cleanup(func() { _ = gs.Close() })
				opts = append(opts, WithCheckpoints(2))
				res, err := NewEngine(gs, opts...).Run(killOnceJob(t, "ladder_failover", gs, 5, false))
				if err != nil {
					t.Fatal(err)
				}
				if res.Strategy.FastRecovery {
					t.Fatal("non-deterministic job selected fast recovery")
				}
			},
			// One event; its span's N is the steps it re-ran.
			counter: func(s metrics.Snapshot) int64 { return s.StepsRerun },
		},
		{
			name: "resume", kind: trace.KindResume,
			run: func(t *testing.T, opts ...Option) {
				store := memstore.New(memstore.WithParts(3))
				t.Cleanup(func() { _ = store.Close() })
				// The aborted run is untraced; only the Resume is observed.
				res, err := NewEngine(store, WithCheckpoints(2)).Run(checkpointChainJob("ladder_resume", 8, crashAfter(5)))
				if err != nil || !res.Aborted {
					t.Fatalf("aborted run: res=%+v err=%v", res, err)
				}
				opts = append(opts, WithCheckpoints(2))
				if _, err := NewEngine(store, opts...).Resume(checkpointChainJob("ladder_resume", 8, nil)); err != nil {
					t.Fatal(err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := &metrics.Collector{}
			tr := trace.New(1 << 14)
			tc.run(t, WithMetrics(m), WithTracer(tr))
			spans := tr.Snapshot()
			var traceID uint64
			for _, s := range spans {
				if s.Kind == trace.KindJobStart {
					traceID = s.Trace
				}
			}
			if traceID == 0 {
				t.Fatal("run was not sampled")
			}
			root := trace.SpanID(traceID, -1, -1)
			counts := make(map[trace.Kind]int64)
			var n int64
			for _, s := range spans {
				counts[s.Kind]++
				if s.Kind != tc.kind {
					continue
				}
				n += s.N
				if s.Trace != traceID {
					t.Errorf("%s span has trace %016x, want the run's %016x: %+v", tc.kind, s.Trace, traceID, s)
				}
				want := root
				if tc.perStepPart {
					if s.Step < 1 || s.Part < 0 {
						t.Errorf("%s span outside any (step, part): %+v", tc.kind, s)
					}
					want = trace.SpanID(traceID, s.Step, s.Part)
				}
				if s.Parent != want {
					t.Errorf("%s span parent %016x, want %016x: %+v", tc.kind, s.Parent, want, s)
				}
			}
			for _, k := range recoveryKinds {
				want := int64(0)
				if k == tc.kind {
					want = 1
				}
				if counts[k] != want {
					t.Errorf("%d %s spans, want %d", counts[k], k, want)
				}
			}
			if tc.counter != nil {
				got := tc.counter(m.Snapshot())
				want := counts[tc.kind]
				if tc.kind == trace.KindFailoverRecovery {
					want = n // the counter is steps re-run, the span's N
				}
				if got != want || got == 0 {
					t.Errorf("counter = %d, want %d (> 0)", got, want)
				}
			}
			if tc.fresh {
				if err := trace.BuildChain(spans, traceID).Complete(); err != nil {
					t.Errorf("causal chain: %v", err)
				}
			}
		})
	}
}
