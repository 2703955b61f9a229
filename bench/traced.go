package main

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ripple/bench/spispan"
	"ripple/internal/codec"
	"ripple/internal/ebsp"
	"ripple/internal/fleet"
	"ripple/internal/kvstore"
	"ripple/internal/logring"
	"ripple/internal/memstore"
	"ripple/internal/metrics"
	"ripple/internal/mq"
	"ripple/internal/profile"
	"ripple/internal/trace"
)

// perLayer are the traced pass's metrics, per job unless the name says
// otherwise. Every workload reports all of them; a layer the workload does
// not touch (rpc_* without a network, lsm_* without a disk) reads 0, which
// is the prediction for it. README has the table of which end-to-end metric
// each should move, on which workload.
var perLayer = []metricDef{
	// codec
	{Name: "marshalled_bytes", Unit: "B", Better: "lower"},
	{Name: "codec_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "codec_share", Unit: "ratio", Better: "lower"}, // computed: bytes × ns/byte ÷ job time
	// mq
	{Name: "mq_puts", Unit: "count", Better: "lower"},
	{Name: "mq_put_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "mq_read_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "mq_cover_ms", Unit: "ms", Better: "lower"},
	{Name: "mq_ping_us", Unit: "us", Better: "lower"}, // rung
	// the store under the SPI
	{Name: "store_ops.get", Unit: "count", Better: "lower"},
	{Name: "store_ops.put", Unit: "count", Better: "lower"},
	{Name: "store_ops.delete", Unit: "count", Better: "lower"},
	{Name: "store_ops.enumerate", Unit: "count", Better: "lower"},
	{Name: "store_ops.agent", Unit: "count", Better: "lower"},
	{Name: "store_ops.admin", Unit: "count", Better: "lower"},
	{Name: "store_busy_ms.get", Unit: "ms", Better: "lower"},
	{Name: "store_busy_ms.put", Unit: "ms", Better: "lower"},
	{Name: "store_busy_ms.delete", Unit: "ms", Better: "lower"},
	{Name: "store_busy_ms.enumerate", Unit: "ms", Better: "lower"},
	{Name: "store_busy_ms.agent", Unit: "ms", Better: "lower"},
	{Name: "store_busy_ms.admin", Unit: "ms", Better: "lower"},
	{Name: "store_cover_ms", Unit: "ms", Better: "lower"},
	{Name: "store_errors", Unit: "count", Better: "lower"},
	{Name: "store_retries", Unit: "count", Better: "lower"},
	// diskstore
	{Name: "lsm_flushes", Unit: "count", Better: "lower"},
	{Name: "lsm_compactions", Unit: "count", Better: "lower"},
	{Name: "lsm_write_amp", Unit: "ratio", Better: "lower"},
	{Name: "lsm_wal_syncs", Unit: "count", Better: "lower"},
	{Name: "lsm_bloom_filtered_ratio", Unit: "ratio", Better: "higher"},
	{Name: "lsm_get_hit_us", Unit: "us", Better: "lower"},  // rung
	{Name: "lsm_get_miss_us", Unit: "us", Better: "lower"}, // rung
	{Name: "lsm_put_us", Unit: "us", Better: "lower"},      // rung
	// netstore
	{Name: "rpc_calls", Unit: "count", Better: "lower"},
	{Name: "rpc_retries", Unit: "count", Better: "lower"},
	{Name: "rpc_client_ms", Unit: "ms", Better: "lower"},
	{Name: "rpc_wire_ms", Unit: "ms", Better: "lower"},
	{Name: "rpc_exec_ms", Unit: "ms", Better: "lower"},
	{Name: "net_get_rtt_us", Unit: "us", Better: "lower"}, // rung
	// ebsp
	{Name: "steps", Unit: "count", Better: "lower"},
	{Name: "messages_sent", Unit: "count", Better: "lower"},
	{Name: "messages_combined", Unit: "count", Better: "higher"},
	{Name: "combine_ratio", Unit: "ratio", Better: "higher"},
	{Name: "compute_invocations", Unit: "count", Better: "lower"},
	{Name: "ebsp_self_ms", Unit: "ms", Better: "lower"},
	{Name: "compute_ms", Unit: "ms", Better: "lower"},
	{Name: "barrier_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "profiler_overhead", Unit: "ratio", Better: "lower"}, // job_p50_ms with the step profiler on ÷ off
	// serve
	{Name: "http_submit_ms", Unit: "ms", Better: "lower"},
	{Name: "queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "rejected", Unit: "count", Better: "lower"},
	{Name: "http_get_rtt_us", Unit: "us", Better: "lower"}, // rung
	// telemetry: job_p50_ms with all six engine sinks on ÷ off
	{Name: "telemetry_overhead", Unit: "ratio", Better: "lower"},
	// Go runtime
	{Name: "allocs_per_job", Unit: "count", Better: "lower"},
	{Name: "alloc_mb_per_job", Unit: "MB", Better: "lower"},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "gc_pause_ms", Unit: "ms", Better: "lower"},
	// harness
	{Name: "job_span_ms", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead", Unit: "ratio", Better: "lower"}, // traced job_p50_ms ÷ untraced
	{Name: "spans_dropped", Unit: "count", Better: "lower"},
}

// exactCounters are the per-layer counts that a seed determines on the
// single-client workloads; -selfcheck asserts two runs agree on them bit for
// bit. The concurrent workloads report theirs with spread instead, and so
// does marshalled_bytes everywhere: batch encodings follow map order.
var exactCounters = []string{
	"steps", "messages_sent", "messages_combined", "compute_invocations",
	"store_ops.get", "store_ops.put", "store_ops.delete", "store_ops.enumerate", "store_ops.agent", "store_ops.admin",
}

const (
	// spanCapacity is the decorators' buffer: room for every span of the
	// traced jobs of the largest workload (sssp.incr.mem, ~1.5k per job).
	spanCapacity = 1 << 21
	// rpcTraceCapacity is each netstore-side span ring; per-call means are
	// taken over what the rings retain.
	rpcTraceCapacity = 1 << 17
	// telemetryJobs is the length of the all-sinks-on leg.
	telemetryJobs = 10
	// rungTime bounds each layer rung.
	rungTime = 300 * time.Millisecond
)

// tracedRun is the outcome of the traced pass for one workload.
type tracedRun struct {
	run     *run
	metrics map[string]metricValue
}

// tracedPass measures one workload's per-layer metrics in legs, each on a
// fresh instance: an untraced leg to age the process, the traced leg (SPI
// decorators and the public counters on) with the layer rungs on its data,
// the untraced baseline, a profiler leg, and on pagerank.mem the telemetry
// leg. Job counts are fixed for a given -seconds, so counters that a seed
// determines repeat exactly.
func tracedPass(w *spec, seed int64, seconds float64, tmp, outDir string, short bool) (*tracedRun, error) {
	in := w.generate(seed, short)
	jobs := jobCount(w.tracedJobs, seconds, short)

	leg := func(e *env, n int, after func(instance, *run)) (*run, error) {
		r := &run{}
		inst, _, err := w.open(in, e)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		if e.prof != nil {
			e.prof.Reset() // drop the warm-up's records
		}
		loop := func() error {
			drive(w, inst, r, func(started int) bool { return started >= n })
			return nil
		}
		if w.clients > 1 && e.col != nil {
			// Concurrent clients: one span and one counter window around
			// the whole region; per-job numbers divide by the job count.
			_, _ = e.timed(0, loop)
		} else {
			_ = loop()
		}
		if after != nil {
			after(inst, r)
		}
		finish(inst, r)
		return r, nil
	}

	// A process runs its first leg slower than its later ones (the heap and
	// the page cache are still growing: pagerank.lsm by 15 %), so an untraced
	// leg goes first to age the process, and the baseline the traced leg is
	// compared with comes after it.
	warm, err := leg(&env{tmp: tmp}, jobs, nil)
	if err != nil {
		return nil, err
	}

	col := &metrics.Collector{}
	e := &env{
		tmp:        tmp,
		rec:        spispan.NewRecorder(spanCapacity),
		col:        col,
		engineOpts: []ebsp.Option{ebsp.WithMetrics(col)},
	}
	m := map[string]metricValue{}
	for _, d := range perLayer {
		m[d.Name] = metricValue{0, d.Unit}
	}
	set := func(name string, v float64) { m[name] = metricValue{v, m[name].Unit} }
	tr, err := leg(e, jobs, func(inst instance, r *run) { rungs(inst, e, set) })
	if err != nil {
		return nil, err
	}
	base, err := leg(&env{tmp: tmp}, jobs, nil)
	if err != nil {
		return nil, err
	}
	merge(tr, warm)
	merge(tr, base)

	n := float64(len(tr.latencies))
	if n == 0 {
		return &tracedRun{run: tr, metrics: m}, nil
	}
	basep50, p50 := percentile(sortedMS(base.latencies), 50), percentile(sortedMS(tr.latencies), 50)
	set("trace_overhead", p50/basep50)
	layerMetrics(e, n, set)

	// The step profiler gets a leg of its own: attached, it alone multiplies
	// job time (x3 on pagerank.mem), which would swamp every span above.
	pc := &metrics.Collector{}
	pe := &env{tmp: tmp, col: pc, prof: profile.New(1 << 16)}
	pe.engineOpts = []ebsp.Option{ebsp.WithMetrics(pc), ebsp.WithProfiler(pe.prof)}
	pr, err := leg(pe, max(3, jobs/3), nil)
	if err != nil {
		return nil, err
	}
	merge(tr, pr)
	var compute, barrier int64
	for _, p := range pe.prof.Snapshot() {
		compute += p.ComputeNS
		barrier += p.BarrierWaitNS
	}
	if pn := float64(len(pr.latencies)); pn > 0 {
		set("compute_ms", float64(compute)/1e6/pn)
		set("barrier_wait_ms", float64(barrier)/1e6/pn)
		set("profiler_overhead", percentile(sortedMS(pr.latencies), 50)/basep50)
	}

	if w.Name == "pagerank.mem" {
		tc := &metrics.Collector{}
		te := &env{tmp: tmp, col: tc, engineOpts: []ebsp.Option{
			ebsp.WithMetrics(tc),
			ebsp.WithProfiler(profile.New(0)),
			ebsp.WithTracer(trace.New(trace.DefaultCapacity)),
			ebsp.WithTraceSampler(trace.NewSampler(1, seed)),
			ebsp.WithLogger(slog.New(logring.New(0).Handler(slog.LevelDebug))),
			ebsp.WithObserver(ebsp.StepObserverFunc(func(ebsp.StepInfo) {})),
			ebsp.WithProgressObserver(ebsp.ProgressObserverFunc(func(ebsp.ProgressInfo) {}), 0),
		}}
		tn := telemetryJobs
		if short {
			tn = 2
		}
		tel, err := leg(te, tn, nil)
		if err != nil {
			return nil, err
		}
		merge(tr, tel)
		set("telemetry_overhead", percentile(sortedMS(tel.latencies), 50)/basep50)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(outDir, w.Name+".trace.jsonl"))
	if err != nil {
		return nil, err
	}
	if err := e.rec.WriteJSONL(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return &tracedRun{run: tr, metrics: m}, nil
}

// merge counts another leg's failures against the traced run.
func merge(into, leg *run) {
	into.failed += leg.failed
	into.attempted += leg.attempted
	into.errs = append(into.errs, leg.errs...)
}

// layerMetrics turns the traced leg's counters and spans into the per-job
// metrics. n is the number of jobs.
func layerMetrics(e *env, n float64, set func(string, float64)) {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	c := e.acct.counts
	per := func(k int) float64 { return float64(c[k]) / n }

	set("steps", per(cSteps))
	set("messages_sent", per(cMessagesSent))
	set("messages_combined", per(cMessagesCombined))
	set("combine_ratio", ratio(c[cMessagesCombined], c[cMessagesSent]))
	set("compute_invocations", per(cComputeInvocations))
	set("marshalled_bytes", per(cMarshalledBytes))
	set("store_retries", per(cRetries))
	set("rpc_calls", per(cRPCCalls))
	set("rpc_retries", per(cRPCRetries))
	set("lsm_flushes", per(cLSMFlushes))
	set("lsm_compactions", per(cLSMCompactions))
	set("lsm_write_amp", ratio(c[cLSMPhysicalBytes], c[cLSMLogicalBytes]))
	set("lsm_wal_syncs", per(cLSMWALSyncs))
	set("lsm_bloom_filtered_ratio", ratio(c[cLSMBloomNegatives], c[cLSMBloomChecks]))

	var errs int64
	for _, op := range []spispan.Op{spispan.OpGet, spispan.OpPut, spispan.OpDelete, spispan.OpEnumerate, spispan.OpAgent, spispan.OpAdmin} {
		st := e.rec.Stats(op)
		set("store_ops."+op.String(), float64(st.Calls)/n)
		set("store_busy_ms."+op.String(), ms(st.BusyNS))
		errs += st.Errors
	}
	set("store_errors", float64(errs)/n)
	put, read := e.rec.Stats(spispan.OpMQPut), e.rec.Stats(spispan.OpMQRead)
	set("mq_puts", float64(put.Calls)/n)
	set("mq_put_busy_ms", ms(put.BusyNS))
	set("mq_read_wait_ms", ms(read.BusyNS))

	cv := coverOf(e.rec.Spans())
	set("job_span_ms", ms(cv.job))
	set("store_cover_ms", ms(cv.store))
	set("mq_cover_ms", ms(cv.mq))
	set("ebsp_self_ms", ms(cv.job-cv.store-cv.mq))
	set("spans_dropped", float64(e.rec.Dropped()))

	a := e.acct
	set("allocs_per_job", float64(a.mallocs)/n)
	set("alloc_mb_per_job", float64(a.allocB)/(1<<20)/n)
	set("peak_heap_mb", float64(a.peakHeap)/(1<<20))
	set("gc_pause_ms", ms(int64(a.gcPause)))

	nsPerByte := codecRung(e.rec.Samples())
	set("codec_ns_per_byte", nsPerByte)
	if a.spanNS > 0 {
		set("codec_share", float64(c[cMarshalledBytes])*nsPerByte/float64(a.spanNS))
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// cover is where the jobs' wall-clock went, by the SPI the engine was
// inside: job = store + mq + the rest, and the rest is the engine's own.
type cover struct {
	job   int64 // total length of the job spans
	store int64 // time some goroutine was inside the store SPI
	mq    int64 // time some goroutine was inside the mq SPI and none in the store
}

type interval struct{ start, end int64 }

// coverOf computes the union of the store's and the queue's self time over
// the job spans. A dispatch span (RunAgent, EnumerateParts) is the store's
// only outside the bodies it ran: from its start to its first body's start
// and from its last body's end to its end.
func coverOf(spans []spispan.Span) cover {
	type hull struct{ first, last int64 }
	bodies := map[int32]hull{}
	for _, s := range spans {
		if s.Layer != spispan.LayerEngine || s.End == 0 {
			continue
		}
		h, ok := bodies[s.Parent]
		if !ok {
			h = hull{s.Start, s.End}
		}
		bodies[s.Parent] = hull{min(h.first, s.Start), max(h.last, s.End)}
	}
	var c cover
	var store, both []interval
	for i, s := range spans {
		if s.End == 0 {
			continue // never ended: the buffer was read mid-call
		}
		switch s.Layer {
		case spispan.LayerJob:
			c.job += s.End - s.Start
		case spispan.LayerStore:
			ivs := []interval{{s.Start, s.End}}
			if h, ok := bodies[int32(i+1)]; ok && s.Op == spispan.OpAgent {
				ivs = []interval{{s.Start, h.first}, {h.last, s.End}}
			}
			store = append(store, ivs...)
			both = append(both, ivs...)
		case spispan.LayerMQ:
			both = append(both, interval{s.Start, s.End})
		}
	}
	c.store = unionLength(store)
	c.mq = unionLength(both) - c.store
	return c
}

// unionLength is the total length covered by the intervals. It sorts them.
func unionLength(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total, end int64
	end = math.MinInt64
	for _, iv := range ivs {
		if iv.end <= end {
			continue
		}
		total += iv.end - max(iv.start, end)
		end = iv.end
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- rungs: one price per layer, on the workload's own data ------------------

// timeLoop calls op repeatedly for about rungTime and returns the mean
// nanoseconds per call, or 0 if op reports it could not run.
func timeLoop(op func(i int) bool) float64 {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < rungTime {
		for k := 0; k < 16; k++ {
			if !op(n) {
				return 0
			}
			n++
		}
	}
	return float64(time.Since(t0)) / float64(n)
}

// codecRung round-trips (encode, then decode) the boundary values the
// decorators captured and returns nanoseconds per encoded byte.
func codecRung(samples []any) float64 {
	var bytes int64
	t0 := time.Now()
	for len(samples) > 0 && time.Since(t0) < rungTime {
		for _, v := range samples {
			_, size, err := codec.RoundTrip(v)
			if err != nil {
				return 0
			}
			bytes += int64(size)
		}
	}
	if bytes == 0 {
		return 0
	}
	return float64(time.Since(t0)) / float64(bytes)
}

// rungs times each layer the workload sits on through its public API, after
// the last traced job and before teardown.
func rungs(inst instance, e *env, set func(string, float64)) {
	// mq: Put then Read on one queue, over the workload's queuing system.
	var q mq.Queuing = mq.NewSystem()
	var place kvstore.Store // where the ping's placement table lives

	switch inst := inst.(type) {
	case *summaInstance:
		q = mq.NewSystem(mq.WithLatency(summaLatency))
	case *pagerankInstance:
		switch b := inst.bed.(type) {
		case *lsmBed:
			if tab, ok := b.last.LookupTable(pagerankTable); ok {
				lsmRungs(tab, len(inst.in.want), set)
			}
		case *netBed:
			// First the split of the jobs' own RPCs, then unbind the last
			// run's trace ID so the rungs' calls stay out of the rings.
			rpcDecompose(b, e, set)
			b.client.BindTrace(0)
			q = b.client.Queuing()
			place = b.client
			if tab, ok := b.client.LookupTable(pagerankTable); ok {
				set("net_get_rtt_us", timeLoop(func(i int) bool {
					_, _, err := tab.Get(i % len(inst.in.want))
					return err == nil
				})/1e3)
			}
		}
	case *serveInstance:
		inst.serveMetrics(set)
		hc := inst.clients[0]
		set("http_get_rtt_us", timeLoop(func(int) bool {
			resp, err := hc.Get(inst.base + "/v1/workloads")
			if err != nil {
				return false
			}
			_, err = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close() // only read
			return err == nil && resp.StatusCode == http.StatusOK
		})/1e3)
	}
	if place == nil {
		local := memstore.New(memstore.WithParts(2))
		defer func() { _ = local.Close() }() // holds only the ping's table
		place = local
	}
	set("mq_ping_us", mqPing(q, place)/1e3)
}

func mqPing(q mq.Queuing, place kvstore.Store) float64 {
	const table, name = "__bench.ping", "__bench.ping"
	tab, err := place.CreateTable(table, kvstore.WithParts(2))
	if err != nil {
		return 0
	}
	defer func() { _ = place.DropTable(table) }()
	qs, err := q.CreateQueueSet(name, tab)
	if err != nil {
		return 0
	}
	defer func() { _ = q.DeleteQueueSet(name) }()
	r, err := qs.ReaderFor(1)
	if err != nil {
		return 0
	}
	return timeLoop(func(i int) bool {
		if err := qs.Put(1, i); err != nil {
			return false
		}
		_, ok, err := r.Read(time.Second)
		return ok && err == nil
	})
}

// lsmRungs prices the LSM's three point operations on the job's own table:
// a Get of a present key, a Get of an absent one, and a Put.
func lsmRungs(tab kvstore.Table, vertices int, set func(string, float64)) {
	set("lsm_get_hit_us", timeLoop(func(i int) bool {
		_, found, err := tab.Get((i * 7919) % vertices)
		return found && err == nil
	})/1e3)
	set("lsm_get_miss_us", timeLoop(func(i int) bool {
		_, found, err := tab.Get(vertices + i)
		return !found && err == nil
	})/1e3)
	v, _, err := tab.Get(0)
	if err != nil {
		return
	}
	set("lsm_put_us", timeLoop(func(i int) bool {
		return tab.Put((i*7919)%vertices, v) == nil
	})/1e3)
}

// rpcDecompose splits the client-observed RPC time of the traced jobs into
// server execution and wire, from the span rings on both sides. The rings
// keep the most recent calls, so the split is a per-call mean scaled by the
// exact per-job call count from the collector.
func rpcDecompose(b *netBed, e *env, set func(string, float64)) {
	fc := &fleet.Collector{Client: b.client, EngineTracer: b.tracer}
	dumps, _ := fc.DumpServers(nil)
	merged, _ := fleet.Assemble(b.tracer.Snapshot(), dumps)
	var calls, client, exec, wire int64
	for _, br := range fleet.Decompose(merged) {
		if br.Matched == 0 {
			continue
		}
		// Scale each endpoint's matched split up to all its calls.
		calls += int64(br.Calls)
		client += br.ClientNS
		exec += br.ServerNS * int64(br.Calls) / int64(br.Matched)
		wire += br.WireNS * int64(br.Calls) / int64(br.Matched)
	}
	if calls == 0 || e.acct.jobs == 0 {
		return
	}
	perJob := float64(e.acct.counts[cRPCCalls]) / float64(e.acct.jobs) / float64(calls) / 1e6
	set("rpc_client_ms", float64(client)*perJob)
	set("rpc_exec_ms", float64(exec)*perJob)
	set("rpc_wire_ms", float64(wire)*perJob)
}
