package ebsp

import (
	"testing"

	"ripple/internal/metrics"
	"ripple/internal/trace"
)

// End-to-end causal-chain tests: run real jobs with head sampling on and
// verify that the recorded spans reconstruct an unbroken lineage from loader
// through every step to the job end, crossing at least one partition
// boundary — and that with sampling off, no trace context leaks anywhere.

func runSampledJob(t *testing.T, job *Job) []trace.Span {
	t.Helper()
	tr := trace.New(4096)
	e := newEngine(t,
		WithMetrics(&metrics.Collector{}),
		WithTracer(tr),
		WithTraceSampler(trace.NewSampler(1, 42)))
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	return tr.Snapshot()
}

func chainFromSpans(t *testing.T, spans []trace.Span) *trace.Chain {
	t.Helper()
	traces := trace.Traces(spans)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	return trace.BuildChain(spans, traces[0])
}

func TestSyncRunReconstructsCausalChain(t *testing.T) {
	spans := runSampledJob(t, &Job{
		Name:        "lineage-sync",
		StateTables: []string{"lin_sync_state"},
		Compute:     &chainCompute{limit: 8},
		Loaders:     []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 0}}}},
	})
	chain := chainFromSpans(t, spans)
	if err := chain.Complete(); err != nil {
		t.Fatalf("chain incomplete: %v", err)
	}
	if !chain.CrossPart() {
		t.Error("chain never crosses a partition boundary")
	}
	// Every deliver edge must resolve to a recorded producer span.
	for _, e := range chain.Edges {
		if e.From == nil || e.To == nil {
			t.Fatalf("unresolved edge %+v", e)
		}
		if e.N <= 0 {
			t.Errorf("edge with non-positive message count: %+v", e)
		}
	}
}

func TestNoSyncRunReconstructsCausalChain(t *testing.T) {
	spans := runSampledJob(t, &Job{
		Name:        "lineage-nosync",
		StateTables: []string{"lin_ns_state"},
		Properties:  Properties{Incremental: true},
		Compute:     &incrementalChain{hops: 6},
		Loaders:     []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 0}}}},
	})
	chain := chainFromSpans(t, spans)
	if err := chain.Complete(); err != nil {
		t.Fatalf("chain incomplete: %v", err)
	}
	if !chain.CrossPart() {
		t.Error("no-sync chain never crosses a partition boundary")
	}
	// The no-sync path must show worker-to-worker deliveries, not just the
	// loader seeding part 0.
	var workerEdges int
	for _, e := range chain.Edges {
		if e.From != nil && e.From.Kind == trace.KindPartCompute {
			workerEdges++
		}
	}
	if workerEdges == 0 {
		t.Error("no worker-to-worker deliver edges on the no-sync path")
	}
}

// Under run-anywhere the computes run in worker slots, not parts; deliver
// edges and envelope provenance must still join into one chain.
func TestRunAnywhereReconstructsCausalChain(t *testing.T) {
	spans := runSampledJob(t, &Job{
		Name:        "lineage-steal",
		StateTables: []string{"lin_steal_state"},
		Properties:  Properties{OneMsg: true, NoContinue: true, RareState: true},
		Compute:     &forwardOnce{hops: 12},
		Loaders:     []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 0}}}},
	})
	if err := chainFromSpans(t, spans).Complete(); err != nil {
		t.Fatalf("chain incomplete: %v", err)
	}
}

func TestUnsampledRunCarriesNoTraceContext(t *testing.T) {
	tr := trace.New(4096)
	e := newEngine(t,
		WithTracer(tr),
		WithTraceSampler(trace.NewSampler(0, 42)))
	_, err := e.Run(&Job{
		Name:        "lineage-off",
		StateTables: []string{"lin_off_state"},
		Compute:     &chainCompute{limit: 5},
		Loaders:     []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 0}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot()
	if len(spans) == 0 {
		t.Fatal("tracer recorded nothing")
	}
	for _, s := range spans {
		if s.Trace != 0 || s.Span != 0 || s.Parent != 0 {
			t.Fatalf("unsampled run leaked trace context: %+v", s)
		}
		if s.Kind == trace.KindDeliver {
			t.Fatalf("unsampled run recorded a deliver span: %+v", s)
		}
	}
	if len(trace.Traces(spans)) != 0 {
		t.Error("unsampled spans grouped into a trace")
	}
}
