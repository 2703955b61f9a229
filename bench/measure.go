package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ripple/bench/spispan"
	"ripple/internal/ebsp"
	"ripple/internal/metrics"
	"ripple/internal/profile"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees; every workload reports
// all of them with tracing off. A bound is the share of the parent commit's
// median by which a metric may worsen before a change is rejected. One bound
// serves all six workloads, so each is set by the noisiest of them on the
// 2-core reference host: the disk-bound pagerank.lsm and serve.http spread
// 4-8 % between identical runs, a tail up to 13 %, while the in-memory
// workloads spread 2-6 % (README, "Bounds"). A job that fails has no latency and is counted in the
// result line's "failed" instead of a metric, because a metric that is
// always 0 has no relative bound.
var endToEnd = []metricDef{
	{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "job_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// setupReps is how many times a run sets the workload up before measuring;
// setup_s is the median, and the last instance is the one measured.
const setupReps = 5

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is what a workload's set-up draws its attachments from. The untraced
// pass leaves everything but tmp zero: the program under test then runs with
// its telemetry off and no decorator in its path.
type env struct {
	tmp string // where on-disk stores live, inside the checkout

	rec  *spispan.Recorder  // SPI decorators' sink
	col  *metrics.Collector // handed to both store and engine
	prof *profile.Recorder
	// engineOpts attach col and prof to every engine the workload builds;
	// the telemetry leg adds the other four sinks.
	engineOpts []ebsp.Option

	acct acct
}

// counts are the program's public counters the traced pass reports, read
// from the one collector the store and the engine share.
type counts [numCounts]int64

const (
	cSteps = iota
	cMessagesSent
	cMessagesCombined
	cComputeInvocations
	cMarshalledBytes
	cRetries
	cRPCCalls
	cRPCRetries
	cLSMFlushes
	cLSMCompactions
	cLSMLogicalBytes
	cLSMPhysicalBytes
	cLSMWALSyncs
	cLSMBloomChecks
	cLSMBloomNegatives
	numCounts
)

func readCounts(col *metrics.Collector) counts {
	s, l := col.Snapshot(), col.LSM().Snapshot()
	return counts{
		cSteps:              s.Steps,
		cMessagesSent:       s.MessagesSent,
		cMessagesCombined:   s.MessagesCombined,
		cComputeInvocations: s.ComputeInvocations,
		cMarshalledBytes:    s.MarshalledBytes,
		cRetries:            s.Retries,
		cRPCCalls:           s.RPCCalls,
		cRPCRetries:         s.RPCRetries,
		cLSMFlushes:         l.Flushes,
		cLSMCompactions:     l.Compactions,
		cLSMLogicalBytes:    l.LogicalBytes,
		cLSMPhysicalBytes:   l.WALBytes + l.FlushBytes + l.CompactionBytes,
		cLSMWALSyncs:        l.WALSyncs,
		cLSMBloomChecks:     l.BloomChecks,
		cLSMBloomNegatives:  l.BloomNegatives,
	}
}

// acct accumulates, over the timed jobs of a traced leg, the deltas of the
// program's public counters and of the Go runtime's.
type acct struct {
	jobs     int
	spanNS   int64
	counts   counts
	mallocs  uint64
	allocB   uint64
	gcPause  uint64
	peakHeap uint64
}

// timed runs fn as job i and returns its wall-clock time, the job's
// latency. In the traced pass the job is also a span that SPI calls nest
// under, and the counters' deltas across it are accumulated; work outside
// fn (reloads, output checks) is neither timed nor counted. A negative i is
// a warm-up job: it only runs.
func (e *env) timed(i int, fn func() error) (time.Duration, error) {
	if i < 0 {
		return 0, fn()
	}
	if e.col == nil {
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	}
	c0 := readCounts(e.col)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	end := func() {}
	if e.rec != nil {
		end = e.rec.BeginJob(i)
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	end()
	runtime.ReadMemStats(&m1)
	c1 := readCounts(e.col)

	a := &e.acct
	a.jobs++
	a.spanNS += int64(d)
	for k := range a.counts {
		a.counts[k] += c1[k] - c0[k]
	}
	a.mallocs += m1.Mallocs - m0.Mallocs
	a.allocB += m1.TotalAlloc - m0.TotalAlloc
	a.gcPause += m1.PauseTotalNs - m0.PauseTotalNs
	a.peakHeap = max(a.peakHeap, m1.HeapAlloc)
	return d, err
}

// instance is one set-up of a workload, ready to run jobs.
type instance interface {
	// job runs job number i for the given client and returns its latency.
	// An error — the program's, or a wrong output — makes it a failed job.
	job(client, i int) (time.Duration, error)
	// close runs the checks that wait for the end, then tears down.
	close() error
}

// spec is one row of BENCHMARK.json's workloads list.
type spec struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	// clients is the number of closed-loop clients (never above nproc).
	clients int
	// tailPct is the percentile reported as job_tail_ms.
	tailPct float64
	// jobs and tracedJobs are the job counts of the untraced and the traced
	// pass at -seconds 12, chosen so that a run measures for about that long
	// on the 2-core reference host; other -seconds scale them. Counts, not
	// the clock, end a run: several workloads slow down as they age (the
	// SSSP graph evolves, the serve daemon's store fills), so only runs of
	// equal length have comparable medians, percentiles and counters.
	jobs, tracedJobs int
	// generate makes the inputs from the seed: benchmark cost, untimed.
	generate func(seed int64, short bool) any
	// open sets the workload up and returns how long the program-side part
	// (store open, table create, input load, warm-up) took.
	open func(in any, e *env) (instance, time.Duration, error)
}

// run is the outcome of one measured leg.
type run struct {
	latencies []time.Duration // successful jobs only
	attempted int
	failed    int
	errs      []string
	setups    []time.Duration
}

// drive runs the closed loop: each client starts its next job when its
// previous one has finished, until stop says the leg is over. Job numbers
// are handed out in order across clients.
func drive(w *spec, inst instance, r *run, stop func(started int) bool) {
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				if stop(next) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				d, err := inst.job(c, i)
				mu.Lock()
				r.attempted++
				if err != nil {
					r.failed++
					if len(r.errs) < 5 {
						r.errs = append(r.errs, fmt.Sprintf("job %d: %v", i, err))
					}
				} else {
					r.latencies = append(r.latencies, d)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
}

// finish closes the instance; a failed end-of-run check fails the run.
func finish(inst instance, r *run) {
	if err := inst.close(); err != nil {
		r.failed++
		r.attempted = max(r.attempted, r.failed)
		r.errs = append(r.errs, fmt.Sprintf("close: %v", err))
	}
}

// jobCount scales a job count calibrated for defaultSeconds to seconds.
func jobCount(at12 int, seconds float64, short bool) int {
	if short {
		return 4
	}
	return max(4, int(math.Round(float64(at12)*seconds/defaultSeconds)))
}

// measure is the untraced pass for one workload: set up setupReps times,
// then run, on the last instance, the job count that fills the given time on
// the reference host. A program that has become several times slower is cut
// off at four times that, so a run can never outlast the driver's patience.
func measure(w *spec, seed int64, seconds float64, tmp string, short bool) (*run, error) {
	in := w.generate(seed, short)
	e := &env{tmp: tmp}
	r := &run{}
	reps := setupReps
	if short {
		reps = 1
	}
	var inst instance
	for rep := 0; rep < reps; rep++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: close after set-up: %w", w.Name, err)
			}
		}
		var d time.Duration
		var err error
		if inst, d, err = w.open(in, e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		r.setups = append(r.setups, d)
	}
	n := jobCount(w.jobs, seconds, short)
	cutoff := time.Now().Add(time.Duration(4 * seconds * float64(time.Second)))
	drive(w, inst, r, func(started int) bool { return started >= n || time.Now().After(cutoff) })
	finish(inst, r)
	return r, nil
}

// endToEndMetrics derives the end-to-end metrics of a leg.
func endToEndMetrics(w *spec, r *run) map[string]metricValue {
	lat := sortedMS(r.latencies)
	var sum float64
	for _, v := range lat {
		sum += v
	}
	m := map[string]metricValue{
		"job_p50_ms":  {percentile(lat, 50), "ms"},
		"job_tail_ms": {percentile(lat, w.tailPct), "ms"},
		"setup_s":     {percentile(secondsOf(r.setups), 50), "s"},
	}
	// Throughput of the closed loop over the time its clients spent in
	// jobs: the benchmark's own reloads and output checks between jobs are
	// not the program's time.
	m["jobs_per_s"] = metricValue{float64(len(lat)) * float64(w.clients) / (sum / 1e3), "1/s"}
	return m
}

func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile of sorted values; NaN when
// there are none, so a run without a successful job cannot pass for fast.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// fingerprint describes the host and build a result came from.
type fingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func newFingerprint(seed int64) fingerprint {
	fp := fingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				fp.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// Read the commit from the checkout's own .git, without running git: it
	// would search parent directories. The driver's checkout has none.
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(".git/" + name); err == nil {
				ref = strings.TrimSpace(string(b))
			}
		}
		fp.Commit = ref
	}
	return fp
}
