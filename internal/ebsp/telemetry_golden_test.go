package ebsp

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ripple/internal/metrics"
	"ripple/internal/profile"
	"ripple/internal/trace"
)

// The telemetry golden: one job per kind of execution slot — pinned sync
// parts, run-anywhere workers and no-sync worker sessions — each run with a
// Collector, a tracer that samples every run, a profiler and a step
// observer, and everything they saw compared exactly. Every count here is a
// function of the job alone: the jobs are chosen so that neither delivery
// order nor the host's CPU count moves one. Marshalled sizes are left out:
// they carry the run's varint-encoded trace IDs (see observeTelemetry).

// telemetrySyncJob is pinned and synchronized, with sender- and
// receiver-side combining, a created state, a continue signal and an
// aggregator.
func telemetrySyncJob() *Job {
	var msgs []InitialMessage
	for k := 0; k < 8; k++ {
		msgs = append(msgs, InitialMessage{Key: k, Message: 1}, InitialMessage{Key: k, Message: 2})
	}
	return &Job{
		Name:        "tg-sync",
		StateTables: []string{"tg_sync_state"},
		Combiner:    sumCombiner{},
		Aggregators: map[string]Aggregator{"sum": IntSum{}},
		Compute: ComputeFunc(func(ctx *Context) bool {
			k, step := ctx.Key().(int), ctx.StepNum()
			total := 0
			for _, m := range ctx.InputMessages() {
				total += m.(int)
			}
			prev, _ := ctx.ReadState(0)
			p, _ := prev.(int)
			ctx.WriteState(0, p+total)
			ctx.AggregateValue("sum", total)
			if step == 1 && k == 0 {
				ctx.CreateState(0, 100, 7)
			}
			if step < 3 && k < 8 {
				ctx.Send((k*3+1)%8, total)
				ctx.Send((k+5)%8, 1)
				ctx.Send((k+1)%8, 1)
			}
			return step == 1 && k == 2
		}),
		Loaders: []Loader{&MessageLoader{Messages: msgs}},
	}
}

// telemetryStealJob runs anywhere. One task per step keeps the worker pool
// at one slot whatever the CPU count.
func telemetryStealJob() *Job {
	return &Job{
		Name:        "tg-steal",
		StateTables: []string{"tg_steal_state"},
		Properties:  Properties{OneMsg: true, NoContinue: true, RareState: true},
		Compute:     &forwardOnce{hops: 4},
		Loaders:     []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 0}}}},
	}
}

// telemetryRelayJob runs with no barriers: a relay chain, so each part's
// counts are fixed by which chain keys it holds, not by delivery order.
func telemetryRelayJob() *Job {
	return &Job{
		Name:        "tg-relay",
		StateTables: []string{"tg_relay_state"},
		Properties:  Properties{Incremental: true},
		Compute:     &incrementalChain{hops: 9},
		Loaders:     []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 0}}}},
	}
}

// telemetry is everything one run published, rendered canonically.
type telemetry struct {
	counters string
	spans    []string
	profiles []string
	steps    []string
}

// observeTelemetry runs job on a fresh 4-part memstore engine with every
// telemetry sink attached and renders what they received.
func observeTelemetry(t *testing.T, job *Job) (telemetry, Strategy) {
	t.Helper()
	col := &metrics.Collector{}
	tr := trace.New(4096)
	prof := profile.New(1024)
	var infos []StepInfo
	e := newEngine(t, WithMetrics(col), WithTracer(tr), WithTraceSampler(trace.NewSampler(1, 42)),
		WithProfiler(prof), WithObserver(StepObserverFunc(func(info StepInfo) { infos = append(infos, info) })))
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	var got telemetry
	// Marshalled sizes carry the run's trace and span IDs, varint-encoded:
	// their length follows the run's sequence number, not the job.
	snap := col.Snapshot()
	snap.MarshalledBytes = 0
	got.counters = fmt.Sprintf("%+v", snap)
	got.spans = renderSpans(tr.Snapshot())
	for _, p := range prof.Snapshot() {
		got.profiles = append(got.profiles, fmt.Sprintf("step=%d part=%d in=%d out=%d enabled=%d gets=%d puts=%d combined=%d",
			p.Step, p.Part, p.MsgsIn, p.MsgsOut, p.Enabled, p.StoreGets, p.StorePuts, p.CombinerHits))
	}
	slices.Sort(got.profiles)
	for _, info := range infos {
		got.steps = append(got.steps, fmt.Sprintf("%s step=%d emitted=%d aggs=%v", info.Job, info.Step, info.Emitted, info.Aggregates))
	}
	return got, res.Strategy
}

// renderSpans renders spans with At, Dur and Seq cleared, sorted. Span IDs
// derive from the run's sequence number, which differs between runs in one
// process, so each ID is named by the (step, part) it stands for. A
// quiesce span's N is the run's delivered count when that worker saw
// quiescence; the last delivering worker may not have added its own yet,
// so it is cleared too.
func renderSpans(spans []trace.Span) []string {
	var traceID uint64
	for _, s := range spans {
		if s.Trace != 0 {
			traceID = s.Trace
		}
	}
	names := map[uint64]string{0: "-"}
	for step := -1; step <= 16; step++ {
		for part := -1; part <= 64; part++ {
			names[trace.SpanID(traceID, step, part)] = fmt.Sprintf("%d/%d", step, part)
		}
	}
	name := func(id uint64) string {
		if n, ok := names[id]; ok {
			return n
		}
		return fmt.Sprintf("?%x", id)
	}
	out := make([]string, 0, len(spans))
	for _, s := range spans {
		span := name(s.Span)
		if s.Kind == trace.KindDeliver && s.Span == trace.EdgeID(s.Parent, trace.SpanID(traceID, s.Step, s.Part)) {
			span = "edge"
		}
		if s.Kind == trace.KindQuiesce {
			s.N = 0
		}
		out = append(out, fmt.Sprintf("%s job=%s step=%d part=%d n=%d traced=%v span=%s parent=%s attrs=%v",
			s.Kind, s.Job, s.Step, s.Part, s.N, s.Trace == traceID && s.Trace != 0, span, name(s.Parent), s.Attrs))
	}
	slices.Sort(out)
	return out
}

func TestTelemetryGolden(t *testing.T) {
	for _, tc := range []struct {
		job   func() *Job
		check func(Strategy) bool
		want  telemetry
	}{
		{
			job:   telemetrySyncJob,
			check: func(s Strategy) bool { return s.Sync && !s.RunAnywhere },
			want: telemetry{
				counters: "steps=3 barriers=3 msgs=52 combined=40 computes=24 marshalled=0B gets=0 puts=0 dels=0 spills=30 aggRounds=0 recoveries=0 retries=0 failovers=0 faults=0 stepsRerun=0 rpcCalls=0 rpcRetries=0",
				spans: []string{
					"barrier job=tg-sync step=1 part=-1 n=4 traced=true span=- parent=1/-1 attrs=map[]",
					"barrier job=tg-sync step=2 part=-1 n=4 traced=true span=- parent=2/-1 attrs=map[]",
					"barrier job=tg-sync step=3 part=-1 n=4 traced=true span=- parent=3/-1 attrs=map[]",
					"combiner_merge job=tg-sync step=1 part=0 n=2 traced=true span=- parent=1/0 attrs=map[]",
					"combiner_merge job=tg-sync step=1 part=1 n=4 traced=true span=- parent=1/1 attrs=map[]",
					"combiner_merge job=tg-sync step=1 part=2 n=5 traced=true span=- parent=1/2 attrs=map[]",
					"combiner_merge job=tg-sync step=1 part=3 n=3 traced=true span=- parent=1/3 attrs=map[]",
					"combiner_merge job=tg-sync step=2 part=0 n=3 traced=true span=- parent=2/0 attrs=map[]",
					"combiner_merge job=tg-sync step=2 part=1 n=4 traced=true span=- parent=2/1 attrs=map[]",
					"combiner_merge job=tg-sync step=2 part=2 n=5 traced=true span=- parent=2/2 attrs=map[]",
					"combiner_merge job=tg-sync step=2 part=3 n=4 traced=true span=- parent=2/3 attrs=map[]",
					"combiner_merge job=tg-sync step=3 part=0 n=2 traced=true span=- parent=3/0 attrs=map[]",
					"combiner_merge job=tg-sync step=3 part=1 n=2 traced=true span=- parent=3/1 attrs=map[]",
					"combiner_merge job=tg-sync step=3 part=2 n=3 traced=true span=- parent=3/2 attrs=map[]",
					"combiner_merge job=tg-sync step=3 part=3 n=3 traced=true span=- parent=3/3 attrs=map[]",
					"deliver job=tg-sync step=1 part=0 n=2 traced=true span=edge parent=0/-1 attrs=map[]",
					"deliver job=tg-sync step=1 part=1 n=4 traced=true span=edge parent=0/-1 attrs=map[]",
					"deliver job=tg-sync step=1 part=2 n=6 traced=true span=edge parent=0/-1 attrs=map[]",
					"deliver job=tg-sync step=1 part=3 n=4 traced=true span=edge parent=0/-1 attrs=map[]",
					"deliver job=tg-sync step=2 part=0 n=1 traced=true span=edge parent=1/1 attrs=map[]",
					"deliver job=tg-sync step=2 part=0 n=1 traced=true span=edge parent=1/2 attrs=map[]",
					"deliver job=tg-sync step=2 part=0 n=2 traced=true span=edge parent=1/3 attrs=map[]",
					"deliver job=tg-sync step=2 part=1 n=1 traced=true span=edge parent=1/0 attrs=map[]",
					"deliver job=tg-sync step=2 part=1 n=1 traced=true span=edge parent=1/3 attrs=map[]",
					"deliver job=tg-sync step=2 part=1 n=2 traced=true span=edge parent=1/2 attrs=map[]",
					"deliver job=tg-sync step=2 part=2 n=2 traced=true span=edge parent=1/1 attrs=map[]",
					"deliver job=tg-sync step=2 part=2 n=2 traced=true span=edge parent=1/3 attrs=map[]",
					"deliver job=tg-sync step=2 part=2 n=3 traced=true span=edge parent=1/2 attrs=map[]",
					"deliver job=tg-sync step=2 part=3 n=1 traced=true span=edge parent=1/0 attrs=map[]",
					"deliver job=tg-sync step=2 part=3 n=1 traced=true span=edge parent=1/1 attrs=map[]",
					"deliver job=tg-sync step=2 part=3 n=1 traced=true span=edge parent=1/3 attrs=map[]",
					"deliver job=tg-sync step=2 part=3 n=2 traced=true span=edge parent=1/2 attrs=map[]",
					"deliver job=tg-sync step=3 part=0 n=1 traced=true span=edge parent=2/1 attrs=map[]",
					"deliver job=tg-sync step=3 part=0 n=1 traced=true span=edge parent=2/2 attrs=map[]",
					"deliver job=tg-sync step=3 part=0 n=1 traced=true span=edge parent=2/3 attrs=map[]",
					"deliver job=tg-sync step=3 part=1 n=1 traced=true span=edge parent=2/0 attrs=map[]",
					"deliver job=tg-sync step=3 part=1 n=1 traced=true span=edge parent=2/3 attrs=map[]",
					"deliver job=tg-sync step=3 part=1 n=2 traced=true span=edge parent=2/2 attrs=map[]",
					"deliver job=tg-sync step=3 part=2 n=2 traced=true span=edge parent=2/1 attrs=map[]",
					"deliver job=tg-sync step=3 part=2 n=2 traced=true span=edge parent=2/2 attrs=map[]",
					"deliver job=tg-sync step=3 part=2 n=2 traced=true span=edge parent=2/3 attrs=map[]",
					"deliver job=tg-sync step=3 part=3 n=1 traced=true span=edge parent=2/0 attrs=map[]",
					"deliver job=tg-sync step=3 part=3 n=1 traced=true span=edge parent=2/1 attrs=map[]",
					"deliver job=tg-sync step=3 part=3 n=1 traced=true span=edge parent=2/3 attrs=map[]",
					"deliver job=tg-sync step=3 part=3 n=2 traced=true span=edge parent=2/2 attrs=map[]",
					"job_end job=tg-sync step=3 part=-1 n=3 traced=true span=-1/-1 parent=- attrs=map[]",
					"job_start job=tg-sync step=0 part=-1 n=4 traced=true span=-1/-1 parent=- attrs=map[sync:true]",
					"load job=tg-sync step=0 part=-1 n=16 traced=true span=0/-1 parent=-1/-1 attrs=map[]",
					"part_compute job=tg-sync step=1 part=0 n=1 traced=true span=1/0 parent=1/-1 attrs=map[]",
					"part_compute job=tg-sync step=1 part=1 n=2 traced=true span=1/1 parent=1/-1 attrs=map[]",
					"part_compute job=tg-sync step=1 part=2 n=3 traced=true span=1/2 parent=1/-1 attrs=map[]",
					"part_compute job=tg-sync step=1 part=3 n=2 traced=true span=1/3 parent=1/-1 attrs=map[]",
					"part_compute job=tg-sync step=2 part=0 n=1 traced=true span=2/0 parent=2/-1 attrs=map[]",
					"part_compute job=tg-sync step=2 part=1 n=2 traced=true span=2/1 parent=2/-1 attrs=map[]",
					"part_compute job=tg-sync step=2 part=2 n=3 traced=true span=2/2 parent=2/-1 attrs=map[]",
					"part_compute job=tg-sync step=2 part=3 n=2 traced=true span=2/3 parent=2/-1 attrs=map[]",
					"part_compute job=tg-sync step=3 part=0 n=1 traced=true span=3/0 parent=3/-1 attrs=map[]",
					"part_compute job=tg-sync step=3 part=1 n=2 traced=true span=3/1 parent=3/-1 attrs=map[]",
					"part_compute job=tg-sync step=3 part=2 n=3 traced=true span=3/2 parent=3/-1 attrs=map[]",
					"part_compute job=tg-sync step=3 part=3 n=2 traced=true span=3/3 parent=3/-1 attrs=map[]",
					"step_end job=tg-sync step=1 part=-1 n=20 traced=true span=1/-1 parent=-1/-1 attrs=map[]",
					"step_end job=tg-sync step=2 part=-1 n=18 traced=true span=2/-1 parent=-1/-1 attrs=map[]",
					"step_end job=tg-sync step=3 part=-1 n=0 traced=true span=3/-1 parent=-1/-1 attrs=map[]",
					"step_start job=tg-sync step=1 part=-1 n=16 traced=true span=1/-1 parent=-1/-1 attrs=map[]",
					"step_start job=tg-sync step=2 part=-1 n=20 traced=true span=2/-1 parent=-1/-1 attrs=map[]",
					"step_start job=tg-sync step=3 part=-1 n=18 traced=true span=3/-1 parent=-1/-1 attrs=map[]",
				},
				profiles: []string{
					"step=1 part=0 in=2 out=2 enabled=1 gets=1 puts=1 combined=2",
					"step=1 part=1 in=4 out=4 enabled=2 gets=2 puts=2 combined=4",
					"step=1 part=2 in=6 out=8 enabled=3 gets=3 puts=3 combined=5",
					"step=1 part=3 in=4 out=6 enabled=2 gets=2 puts=2 combined=3",
					"step=2 part=0 in=4 out=2 enabled=1 gets=2 puts=2 combined=3",
					"step=2 part=1 in=4 out=4 enabled=2 gets=2 puts=2 combined=4",
					"step=2 part=2 in=7 out=7 enabled=3 gets=3 puts=3 combined=5",
					"step=2 part=3 in=5 out=5 enabled=2 gets=2 puts=2 combined=4",
					"step=3 part=0 in=3 out=0 enabled=1 gets=1 puts=1 combined=2",
					"step=3 part=1 in=4 out=0 enabled=2 gets=2 puts=2 combined=2",
					"step=3 part=2 in=6 out=0 enabled=3 gets=3 puts=3 combined=3",
					"step=3 part=3 in=5 out=0 enabled=2 gets=2 puts=2 combined=3",
				},
				steps: []string{
					"tg-sync step=1 emitted=20 aggs=map[sum:24]",
					"tg-sync step=2 emitted=18 aggs=map[sum:40]",
					"tg-sync step=3 emitted=0 aggs=map[sum:56]",
				},
			},
		},
		{
			job:   telemetryStealJob,
			check: func(s Strategy) bool { return s.Sync && s.RunAnywhere },
			want: telemetry{
				counters: "steps=5 barriers=5 msgs=5 combined=0 computes=5 marshalled=0B gets=0 puts=0 dels=0 spills=5 aggRounds=0 recoveries=0 retries=0 failovers=0 faults=0 stepsRerun=0 rpcCalls=0 rpcRetries=0",
				spans: []string{
					"barrier job=tg-steal step=1 part=-1 n=1 traced=true span=- parent=1/-1 attrs=map[]",
					"barrier job=tg-steal step=2 part=-1 n=1 traced=true span=- parent=2/-1 attrs=map[]",
					"barrier job=tg-steal step=3 part=-1 n=1 traced=true span=- parent=3/-1 attrs=map[]",
					"barrier job=tg-steal step=4 part=-1 n=1 traced=true span=- parent=4/-1 attrs=map[]",
					"barrier job=tg-steal step=5 part=-1 n=1 traced=true span=- parent=5/-1 attrs=map[]",
					"deliver job=tg-steal step=1 part=3 n=1 traced=true span=edge parent=0/-1 attrs=map[]",
					"deliver job=tg-steal step=2 part=1 n=1 traced=true span=edge parent=1/4 attrs=map[]",
					"deliver job=tg-steal step=3 part=2 n=1 traced=true span=edge parent=2/4 attrs=map[]",
					"deliver job=tg-steal step=4 part=1 n=1 traced=true span=edge parent=3/4 attrs=map[]",
					"deliver job=tg-steal step=5 part=2 n=1 traced=true span=edge parent=4/4 attrs=map[]",
					"job_end job=tg-steal step=5 part=-1 n=5 traced=true span=-1/-1 parent=- attrs=map[]",
					"job_start job=tg-steal step=0 part=-1 n=4 traced=true span=-1/-1 parent=- attrs=map[sync:true]",
					"load job=tg-steal step=0 part=-1 n=1 traced=true span=0/-1 parent=-1/-1 attrs=map[]",
					"part_compute job=tg-steal step=1 part=4 n=1 traced=true span=1/4 parent=1/-1 attrs=map[]",
					"part_compute job=tg-steal step=2 part=4 n=1 traced=true span=2/4 parent=2/-1 attrs=map[]",
					"part_compute job=tg-steal step=3 part=4 n=1 traced=true span=3/4 parent=3/-1 attrs=map[]",
					"part_compute job=tg-steal step=4 part=4 n=1 traced=true span=4/4 parent=4/-1 attrs=map[]",
					"part_compute job=tg-steal step=5 part=4 n=1 traced=true span=5/4 parent=5/-1 attrs=map[]",
					"step_end job=tg-steal step=1 part=-1 n=1 traced=true span=1/-1 parent=-1/-1 attrs=map[]",
					"step_end job=tg-steal step=2 part=-1 n=1 traced=true span=2/-1 parent=-1/-1 attrs=map[]",
					"step_end job=tg-steal step=3 part=-1 n=1 traced=true span=3/-1 parent=-1/-1 attrs=map[]",
					"step_end job=tg-steal step=4 part=-1 n=1 traced=true span=4/-1 parent=-1/-1 attrs=map[]",
					"step_end job=tg-steal step=5 part=-1 n=0 traced=true span=5/-1 parent=-1/-1 attrs=map[]",
					"step_start job=tg-steal step=1 part=-1 n=1 traced=true span=1/-1 parent=-1/-1 attrs=map[]",
					"step_start job=tg-steal step=2 part=-1 n=1 traced=true span=2/-1 parent=-1/-1 attrs=map[]",
					"step_start job=tg-steal step=3 part=-1 n=1 traced=true span=3/-1 parent=-1/-1 attrs=map[]",
					"step_start job=tg-steal step=4 part=-1 n=1 traced=true span=4/-1 parent=-1/-1 attrs=map[]",
					"step_start job=tg-steal step=5 part=-1 n=1 traced=true span=5/-1 parent=-1/-1 attrs=map[]",
				},
				profiles: []string{
					"step=1 part=4 in=1 out=1 enabled=1 gets=0 puts=1 combined=0",
					"step=2 part=4 in=1 out=1 enabled=1 gets=0 puts=1 combined=0",
					"step=3 part=4 in=1 out=1 enabled=1 gets=0 puts=1 combined=0",
					"step=4 part=4 in=1 out=1 enabled=1 gets=0 puts=1 combined=0",
					"step=5 part=4 in=1 out=0 enabled=1 gets=0 puts=1 combined=0",
				},
				steps: []string{
					"tg-steal step=1 emitted=1 aggs=map[]",
					"tg-steal step=2 emitted=1 aggs=map[]",
					"tg-steal step=3 emitted=1 aggs=map[]",
					"tg-steal step=4 emitted=1 aggs=map[]",
					"tg-steal step=5 emitted=0 aggs=map[]",
				},
			},
		},
		{
			job:   telemetryRelayJob,
			check: func(s Strategy) bool { return !s.Sync },
			want: telemetry{
				counters: "steps=0 barriers=0 msgs=10 combined=0 computes=10 marshalled=0B gets=0 puts=0 dels=0 spills=0 aggRounds=0 recoveries=0 retries=0 failovers=0 faults=0 stepsRerun=0 rpcCalls=0 rpcRetries=0",
				spans: []string{
					"deliver job=tg-relay step=0 part=0 n=2 traced=true span=edge parent=0/2 attrs=map[]",
					"deliver job=tg-relay step=0 part=1 n=1 traced=true span=edge parent=0/2 attrs=map[]",
					"deliver job=tg-relay step=0 part=1 n=1 traced=true span=edge parent=0/3 attrs=map[]",
					"deliver job=tg-relay step=0 part=2 n=1 traced=true span=edge parent=0/2 attrs=map[]",
					"deliver job=tg-relay step=0 part=2 n=1 traced=true span=edge parent=0/3 attrs=map[]",
					"deliver job=tg-relay step=0 part=2 n=2 traced=true span=edge parent=0/1 attrs=map[]",
					"deliver job=tg-relay step=0 part=3 n=1 traced=true span=edge parent=0/-1 attrs=map[]",
					"deliver job=tg-relay step=0 part=3 n=1 traced=true span=edge parent=0/0 attrs=map[]",
					"job_end job=tg-relay step=0 part=-1 n=0 traced=true span=-1/-1 parent=- attrs=map[]",
					"job_start job=tg-relay step=0 part=-1 n=4 traced=true span=-1/-1 parent=- attrs=map[sync:false]",
					"load job=tg-relay step=0 part=-1 n=1 traced=true span=0/-1 parent=-1/-1 attrs=map[]",
					"part_compute job=tg-relay step=0 part=0 n=2 traced=true span=0/0 parent=-1/-1 attrs=map[]",
					"part_compute job=tg-relay step=0 part=1 n=2 traced=true span=0/1 parent=-1/-1 attrs=map[]",
					"part_compute job=tg-relay step=0 part=2 n=4 traced=true span=0/2 parent=-1/-1 attrs=map[]",
					"part_compute job=tg-relay step=0 part=3 n=2 traced=true span=0/3 parent=-1/-1 attrs=map[]",
					"quiesce job=tg-relay step=0 part=0 n=0 traced=true span=- parent=0/0 attrs=map[]",
					"quiesce job=tg-relay step=0 part=1 n=0 traced=true span=- parent=0/1 attrs=map[]",
					"quiesce job=tg-relay step=0 part=2 n=0 traced=true span=- parent=0/2 attrs=map[]",
					"quiesce job=tg-relay step=0 part=3 n=0 traced=true span=- parent=0/3 attrs=map[]",
				},
				profiles: []string{
					"step=0 part=0 in=2 out=1 enabled=2 gets=0 puts=2 combined=0",
					"step=0 part=1 in=2 out=2 enabled=2 gets=0 puts=2 combined=0",
					"step=0 part=2 in=4 out=4 enabled=4 gets=0 puts=4 combined=0",
					"step=0 part=3 in=2 out=2 enabled=2 gets=0 puts=2 combined=0",
				},
				// No-sync runs have no steps to observe.
			},
		},
	} {
		job := tc.job()
		t.Run(job.Name, func(t *testing.T) {
			got, strategy := observeTelemetry(t, job)
			if !tc.check(strategy) {
				t.Fatalf("strategy = %+v", strategy)
			}
			if got.counters != tc.want.counters {
				t.Errorf("counters:\n got %s\nwant %s", got.counters, tc.want.counters)
			}
			for _, c := range []struct {
				what      string
				got, want []string
			}{
				{"spans", got.spans, tc.want.spans},
				{"profiles", got.profiles, tc.want.profiles},
				{"steps", got.steps, tc.want.steps},
			} {
				if !slices.Equal(c.got, c.want) {
					t.Errorf("%s differ:\n got:\n%s\nwant:\n%s", c.what, quoteLines(c.got), quoteLines(c.want))
				}
			}
		})
	}
}

// quoteLines renders lines as Go string literals, one per line, so a
// mismatch reads as a diff and pastes as an expectation.
func quoteLines(lines []string) string {
	var b strings.Builder
	for _, l := range lines {
		fmt.Fprintf(&b, "\t%q,\n", l)
	}
	return b.String()
}
