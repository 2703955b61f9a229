package chaos

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"ripple/internal/codec"
	"ripple/internal/kvstore"
	"ripple/internal/metrics"
	"ripple/internal/mq"
	"ripple/internal/trace"
)

// Injector makes the schedule's injection decisions and records the injected
// faults. One Injector is shared by the store wrapper (Wrap) and the mq
// system (mq.WithFaults(inj)); it is safe for concurrent use.
//
// Determinism: each decision is a pure function of (seed, fault kind,
// normalized name, part, per-cell op index). The per-cell index only counts
// operations of that cell, so as long as the workload performs the same
// operations per cell, the same seed injects the same fault set — no matter
// how goroutines interleave. Engine-generated table names embed a run
// sequence number; normalization replaces numeric name segments so the
// decisions are stable across runs within one process too.
type Injector struct {
	sched   Schedule
	metrics *metrics.Collector
	tracer  *trace.Tracer

	mu         sync.Mutex
	counters   map[cell]int64
	records    []Record
	dispatches int64
	killFired  []bool
	wireSt     *wireState // lazy wire-fault bookkeeping (wire.go)
}

// cell identifies one decision stream.
type cell struct {
	kind string
	name string
	part int
}

// Record is one injected fault: fault kind, the (normalized) table or queue
// set it hit, the part/queue, and the per-cell operation index it fired at.
// The record set — not its order — is what a fixed seed reproduces.
type Record struct {
	Kind string `json:"kind"`
	Name string `json:"name"`
	Part int    `json:"part"`
	N    int64  `json:"n"`
}

func (r Record) String() string {
	return fmt.Sprintf("%s %s[%d]#%d", r.Kind, r.Name, r.Part, r.N)
}

// Option configures an Injector.
type Option func(*Injector)

// WithMetrics counts injected faults on the collector.
func WithMetrics(m *metrics.Collector) Option {
	return func(inj *Injector) { inj.metrics = m }
}

// WithTracer records a trace.KindFault span per injected fault.
func WithTracer(t *trace.Tracer) Option {
	return func(inj *Injector) { inj.tracer = t }
}

// NewInjector creates an injector for the schedule.
func NewInjector(sched Schedule, opts ...Option) *Injector {
	sort.Slice(sched.Kills, func(i, j int) bool {
		return sched.Kills[i].AfterDispatches < sched.Kills[j].AfterDispatches
	})
	inj := &Injector{
		sched:     sched,
		counters:  make(map[cell]int64),
		killFired: make([]bool, len(sched.Kills)),
	}
	for _, o := range opts {
		o(inj)
	}
	return inj
}

// Schedule returns the injector's (kill-sorted) schedule.
func (inj *Injector) Schedule() Schedule { return inj.sched }

// Records returns the injected faults so far, sorted into a canonical order
// so two runs with the same seed compare equal.
func (inj *Injector) Records() []Record {
	inj.mu.Lock()
	out := append([]Record(nil), inj.records...)
	inj.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Part != b.Part {
			return a.Part < b.Part
		}
		return a.N < b.N
	})
	return out
}

// roll advances the cell's op counter and reports the decision variate.
func (inj *Injector) roll(kind, name string, part int) (int64, float64) {
	c := cell{kind: kind, name: name, part: part}
	inj.mu.Lock()
	n := inj.counters[c]
	inj.counters[c] = n + 1
	inj.mu.Unlock()
	return n, uniform(inj.sched.Seed, kind, name, part, n)
}

func (inj *Injector) record(kind, name string, part int, n int64) {
	inj.mu.Lock()
	inj.records = append(inj.records, Record{Kind: kind, Name: name, Part: part, N: n})
	inj.mu.Unlock()
	inj.metrics.AddFaultsInjected(1)
	inj.tracer.Record(trace.KindFault, kind+":"+name, 0, part, n, 0)
}

// tableFault decides the fate of one table client operation.
func (inj *Injector) tableFault(name string, part int) error {
	norm := normalizeName(name)
	if p := inj.sched.StoreErrRate; p > 0 {
		if n, u := inj.roll("store.err", norm, part); u < p {
			inj.record("store.err", norm, part, n)
			return fmt.Errorf("chaos: injected store fault on %s[%d]: %w", name, part, kvstore.ErrTransient)
		}
	}
	if p := inj.sched.StoreDelayRate; p > 0 && inj.sched.StoreDelay > 0 {
		if n, u := inj.roll("store.delay", norm, part); u < p {
			inj.record("store.delay", norm, part, n)
			time.Sleep(inj.sched.StoreDelay)
		}
	}
	return nil
}

// agentFault decides the fate of one agent dispatch; it also advances the
// dispatch clock and fires any due scheduled kills on target.
func (inj *Injector) agentFault(target kvstore.Store, name string, part int) error {
	inj.fireKills(target)
	norm := normalizeName(name)
	if p := inj.sched.AgentErrRate; p > 0 {
		if n, u := inj.roll("agent.err", norm, part); u < p {
			inj.record("agent.err", norm, part, n)
			return fmt.Errorf("chaos: injected dispatch fault on %s[%d]: %w", name, part, kvstore.ErrTransient)
		}
	}
	return nil
}

// fireKills advances the dispatch clock and executes due kills. A due kill is
// claimed under the lock, so concurrent dispatches — the engine dispatches a
// step's parts in parallel — fire it once, not once each. A kill whose table
// does not exist yet is un-claimed and stays armed for a later dispatch.
func (inj *Injector) fireKills(target kvstore.Store) {
	rep, replicated := target.(kvstore.Replicated)
	inj.mu.Lock()
	inj.dispatches++
	var due []int
	if replicated {
		for i, k := range inj.sched.Kills {
			if !inj.killFired[i] && k.AfterDispatches < inj.dispatches {
				inj.killFired[i] = true
				due = append(due, i)
			}
		}
	}
	inj.mu.Unlock()
	for _, i := range due {
		k := inj.sched.Kills[i]
		if err := rep.FailPrimary(k.Table, k.Part); errors.Is(err, kvstore.ErrNoTable) {
			inj.mu.Lock()
			inj.killFired[i] = false
			inj.mu.Unlock()
			continue
		}
		inj.record("kill", k.Table, k.Part, k.AfterDispatches)
	}
}

// PutFault implements mq.FaultInjector for cross-part queue Puts.
func (inj *Injector) PutFault(set string, queue int) mq.Fault {
	norm := normalizeName(set)
	var f mq.Fault
	if p := inj.sched.MQErrRate; p > 0 {
		if n, u := inj.roll("mq.err", norm, queue); u < p {
			inj.record("mq.err", norm, queue, n)
			f.Err = fmt.Errorf("chaos: injected mq fault on %s[%d]: %w", set, queue, mq.ErrTransient)
			return f
		}
	}
	if p := inj.sched.MQDupRate; p > 0 {
		if n, u := inj.roll("mq.dup", norm, queue); u < p {
			inj.record("mq.dup", norm, queue, n)
			f.Duplicates = 1
		}
	}
	if p := inj.sched.MQDelayRate; p > 0 && inj.sched.MQDelay > 0 {
		if n, u := inj.roll("mq.delay", norm, queue); u < p {
			inj.record("mq.delay", norm, queue, n)
			f.Delay = inj.sched.MQDelay
		}
	}
	return f
}

// FsyncFault implements diskstore.DiskInjector for WAL and SSTable fsyncs:
// it may stall the fsync (disk.slow), fail it with a retryable error
// (disk.fsync), or both decisions may pass and the fsync proceeds normally.
func (inj *Injector) FsyncFault(table string, part int) (time.Duration, error) {
	norm := normalizeName(table)
	var delay time.Duration
	if p := inj.sched.DiskSlowFsyncRate; p > 0 && inj.sched.DiskSlowFsync > 0 {
		if n, u := inj.roll("disk.slow", norm, part); u < p {
			inj.record("disk.slow", norm, part, n)
			delay = inj.sched.DiskSlowFsync
		}
	}
	if p := inj.sched.DiskFsyncErrRate; p > 0 {
		if n, u := inj.roll("disk.fsync", norm, part); u < p {
			inj.record("disk.fsync", norm, part, n)
			return delay, fmt.Errorf("chaos: injected fsync fault on %s[%d]: %w", table, part, kvstore.ErrTransient)
		}
	}
	return delay, nil
}

// TornTail implements diskstore.DiskInjector: when a part's write-ahead log
// is opened it may report a positive clip, and the store truncates that many
// bytes off the log's end before replay — the recovery path must then clip
// the torn final record instead of failing.
func (inj *Injector) TornTail(table string, part int) int {
	p := inj.sched.DiskTornTailRate
	if p <= 0 {
		return 0
	}
	norm := normalizeName(table)
	n, u := inj.roll("disk.torn", norm, part)
	if u >= p {
		return 0
	}
	inj.record("disk.torn", norm, part, n)
	// Deterministic clip width in [1, 64] from the same variate.
	return 1 + int(u/p*64)
}

// normalizeName replaces all-digit dot-segments of an engine-generated name
// ("__ebsp.pagerank.3.transport" → "__ebsp.pagerank.#.transport") so decision
// streams are stable across run sequence numbers.
func normalizeName(name string) string {
	segs := strings.Split(name, ".")
	for i, s := range segs {
		if s != "" && strings.Trim(s, "0123456789") == "" {
			segs[i] = "#"
		}
	}
	return strings.Join(segs, ".")
}

// uniform maps the decision coordinates to a deterministic variate in [0,1).
func uniform(seed int64, kind, name string, part int, n int64) float64 {
	h := fnv.New64a()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(name))
	var buf [24]byte
	putInt64(buf[0:], seed)
	putInt64(buf[8:], int64(part))
	putInt64(buf[16:], n)
	h.Write(buf[:])
	x := codec.Mix64(h.Sum64())
	return float64(x>>11) / float64(1<<53)
}

func putInt64(b []byte, v int64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(v) >> (8 * i))
	}
}
