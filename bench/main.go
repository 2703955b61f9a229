// Command bench is the repository's benchmark: six workloads over the SPI
// ladder (codec → mq → store SPI {mem, grid, LSM, net} → ebsp → serve),
// end-to-end job latency with tracing off, and a traced pass that prices
// each layer from outside the program. See README.md.
//
//	bash bench/run.sh                       every workload, end-to-end metrics
//	bash bench/run.sh --trace 1             every workload, per-layer metrics
//	bash bench/run.sh --workload serve.http --seed 3 --seconds 12 --trace 0
//	bash bench/run.sh --selfcheck           two sets of the same code, compared
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

func main() {
	var (
		name      = flag.String("workload", "", "run only this workload (default: all six)")
		seed      = flag.Int64("seed", 1, "seeds all input generation")
		seconds   = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		traceOn   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced per-layer pass")
		selfcheck = flag.Bool("selfcheck", false, "run both passes twice and compare the two sets against the bounds")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		outDir    = flag.String("out", "bench/out", "directory for result files, span files and on-disk stores")
	)
	flag.Parse()
	if *manifest {
		writeManifest(os.Stdout)
		return
	}
	if flag.NArg() > 0 || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-selfcheck]")
		os.Exit(2)
	}
	todo := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *name)
			os.Exit(2)
		}
		todo = []*spec{w}
	}
	b := &bench{seed: *seed, seconds: *seconds, out: *outDir, tmp: filepath.Join(*outDir, "tmp"), env: newFingerprint(*seed)}
	// A run that died left its stores behind; start from an empty directory.
	if err := errors.Join(os.RemoveAll(b.tmp), os.MkdirAll(b.tmp, 0o755)); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("env: %+v\n", b.env)

	var ok bool
	if *selfcheck {
		ok = b.selfcheck(todo)
	} else {
		var last *outcome
		ok = true
		for _, w := range todo {
			o, err := b.once(w, *traceOn == 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			o.print()
			ok = ok && o.Correct
			last = o
		}
		if *name != "" {
			// The driver's contract: one JSON object as the last line.
			line, err := json.Marshal(last.resultLine)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			fmt.Println(string(line))
		}
	}
	if err := os.RemoveAll(b.tmp); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

type bench struct {
	seed     int64
	seconds  float64
	out, tmp string
	env      fingerprint
}

// resultLine is the object the driver reads from the last line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is one workload's result in one pass, as printed and as written to
// <out>/<workload>[.trace].json.
type outcome struct {
	Workload string      `json:"workload"`
	Traced   bool        `json:"traced"`
	Samples  int         `json:"samples"`
	TailPct  float64     `json:"tail_percentile"`
	Env      fingerprint `json:"env"`
	Errors   []string    `json:"errors,omitempty"`
	resultLine
}

// once runs one pass of one workload and writes its result file.
func (b *bench) once(w *spec, traced bool) (*outcome, error) {
	o := &outcome{Workload: w.Name, Traced: traced, TailPct: w.tailPct, Env: b.env}
	var r *run
	file := w.Name + ".json"
	if traced {
		t, err := tracedPass(w, b.seed, b.seconds, b.tmp, b.out, false)
		if err != nil {
			return nil, err
		}
		r, o.Metrics = t.run, t.metrics
		file = w.Name + ".trace.json"
	} else {
		var err error
		if r, err = measure(w, b.seed, b.seconds, b.tmp, false); err != nil {
			return nil, err
		}
		o.Metrics = endToEndMetrics(w, r)
	}
	if len(r.latencies) == 0 {
		return nil, fmt.Errorf("%s: no job succeeded: %v", w.Name, r.errs)
	}
	o.Samples, o.Attempted, o.Failed, o.Errors = len(r.latencies), r.attempted, r.failed, r.errs
	o.Correct = r.failed == 0
	doc, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return nil, err
	}
	return o, os.WriteFile(filepath.Join(b.out, file), append(doc, '\n'), 0o644)
}

// print lists every metric by name with its unit, and the sample count.
func (o *outcome) print() {
	pass := "end-to-end, tracing off"
	if o.Traced {
		pass = "per-layer, traced"
	}
	fmt.Printf("\n%s (%s): %d jobs timed, %d attempted, %d failed, fail_ratio %.4f, tail = p%g\n",
		o.Workload, pass, o.Samples, o.Attempted, o.Failed, float64(o.Failed)/float64(o.Attempted), o.TailPct)
	for _, e := range o.Errors {
		fmt.Printf("  FAILED %s\n", e)
	}
	defs := endToEnd
	if o.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		m := o.Metrics[d.Name]
		fmt.Printf("  %-26s %14.4f %s\n", d.Name, m.Value, m.Unit)
	}
	if o.Traced {
		o.printLadder()
	}
}

// printLadder is the "one price per layer" view: the span-derived share of
// the job each side of the SPI took, beside the rung prices.
func (o *outcome) printLadder() {
	v := func(name string) float64 { return o.Metrics[name].Value }
	span := v("job_span_ms")
	share := func(name string) float64 { return 100 * v(name) / span }
	fmt.Printf("  ladder: job %.2f ms = ebsp self %.1f%% + store cover %.1f%% + mq cover %.1f%%; trace overhead x%.2f\n",
		span, share("ebsp_self_ms"), share("store_cover_ms"), share("mq_cover_ms"), v("trace_overhead"))
	fmt.Printf("  rungs: codec %.2f ns/B | mq ping %.1f us | lsm get hit %.1f us, miss %.1f us, put %.1f us | net get %.1f us | http get %.1f us\n",
		v("codec_ns_per_byte"), v("mq_ping_us"), v("lsm_get_hit_us"), v("lsm_get_miss_us"), v("lsm_put_us"),
		v("net_get_rtt_us"), v("http_get_rtt_us"))
}

// selfcheck runs both passes twice with the same code and inputs and
// compares set A with set B: every end-to-end metric must agree within its
// bound, no job may fail, and on the single-client workloads the counters a
// seed determines must be identical.
func (b *bench) selfcheck(todo []*spec) bool {
	ok := true
	for _, traced := range []bool{false, true} {
		for _, w := range todo {
			var set [2]*outcome
			for k := range set {
				o, err := b.once(w, traced)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return false
				}
				if !o.Correct {
					fmt.Printf("%s: set %c had failed jobs: %v\n", w.Name, 'A'+k, o.Errors)
					ok = false
				}
				set[k] = o
			}
			if traced {
				ok = compareExact(w, set[0], set[1]) && ok
			} else {
				ok = compareBounds(w, set[0], set[1]) && ok
			}
		}
	}
	if ok {
		fmt.Println("\nselfcheck: the two sets agree")
	} else {
		fmt.Println("\nselfcheck: FAILED")
	}
	return ok
}

func compareBounds(w *spec, a, b *outcome) bool {
	ok := true
	fmt.Printf("\n%s: set A vs set B, end-to-end\n", w.Name)
	for _, d := range endToEnd {
		va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
		rel := math.Abs(va-vb) / va
		verdict := "ok"
		// Set-up times of a few hundred ms get 0.1 s of slack.
		if rel > d.Bound && !(d.Name == "setup_s" && math.Abs(va-vb) <= 0.1) {
			verdict, ok = "BREACH", false
		}
		fmt.Printf("  %-12s A %12.4f  B %12.4f %-4s |A-B|/A %6.2f%%  bound %4.0f%%  %s\n",
			d.Name, va, vb, d.Unit, 100*rel, 100*d.Bound, verdict)
	}
	return ok
}

func compareExact(w *spec, a, b *outcome) bool {
	ok := true
	fmt.Printf("\n%s: set A vs set B, per-layer counters\n", w.Name)
	names := make([]string, 0, len(a.Metrics))
	for name := range a.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	mustMatch := map[string]bool{}
	if w.clients == 1 {
		for _, name := range exactCounters {
			mustMatch[name] = true
		}
	}
	for _, name := range names {
		m := a.Metrics[name]
		if m.Unit != "count" && m.Unit != "B" {
			continue
		}
		va, vb := m.Value, b.Metrics[name].Value
		switch {
		case va == vb:
			fmt.Printf("  %-22s %14.4f  exact\n", name, va)
		case mustMatch[name]:
			fmt.Printf("  %-22s A %14.4f  B %14.4f  NOT EXACT\n", name, va, vb)
			ok = false
		default:
			fmt.Printf("  %-22s A %14.4f  B %14.4f  spread %.2f%%\n", name, va, vb, 100*math.Abs(va-vb)/math.Max(va, vb))
		}
	}
	return ok
}

// writeManifest writes BENCHMARK.json from the tables the benchmark itself
// uses, so the two cannot drift.
func writeManifest(w io.Writer) {
	doc, err := json.MarshalIndent(map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": defaultSeconds,
		"workloads":   workloads,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	}, "", "  ")
	if err != nil {
		panic(err) // static tables: only a bug fails this
	}
	fmt.Fprintln(w, string(doc))
}
