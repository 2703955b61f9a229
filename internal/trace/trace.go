// Package trace provides a bounded, in-memory event tracer for the EBSP
// engine and the stores: typed span events with monotonic timestamps in a
// fixed-capacity ring buffer, dumpable as JSONL. The tracer answers the
// questions the flat counters cannot — where inside a job the time went
// (compute vs barrier vs checkpoint), and what a no-sync run, which has no
// steps at all, was doing while it quiesced.
//
// Like the metrics collector, a nil *Tracer is valid and every method is a
// no-op, so instrumented code never needs nil checks. The ring overwrites
// the oldest spans when full; Dropped reports how many were lost.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Kind identifies a span event type.
type Kind uint8

// Span kinds recorded by the engine, the queueing layer, and the stores.
const (
	KindJobStart         Kind = iota + 1 // a job began executing (N = parts)
	KindJobEnd                           // a job finished (N = steps, Dur = wall time)
	KindStepStart                        // a synchronized step began
	KindStepEnd                          // a synchronized step finished (N = envelopes emitted)
	KindBarrier                          // barrier crossed (Dur = slowest-fastest part skew)
	KindPartCompute                      // one part's share of a step (N = invocations)
	KindCombinerMerge                    // combiner merges in one part's step (N = messages eliminated)
	KindCheckpoint                       // barrier-state snapshot written (N = pending envelopes)
	KindProgress                         // no-sync watermark reached (N = envelopes delivered)
	KindQuiesce                          // no-sync quiescence probe succeeded for one part
	KindLogReplay                        // diskstore replayed a part log on open (N = bytes)
	KindCompaction                       // diskstore compacted a part log (N = bytes reclaimed)
	KindFault                            // chaos layer injected a fault (N = per-cell op index)
	KindRetry                            // engine retried a transient failure (N = attempt)
	KindFailoverRecovery                 // engine healed + re-ran from a checkpoint (N = steps re-run)
	KindLoad                             // loaders materialized initial state + messages (N = envelopes)
	KindDeliver                          // a causal delivery edge: messages from one sender span
	// arrived at one (step, part) receiver (N = envelopes on the edge).
	KindRPC       // a transport client RPC round-trip (N = attempt)
	KindRPCServer // a part-server handled one RPC (N = request frame ID)
	KindStats     // a metrics-snapshot flush record (counters in Attrs)
	// KindMemtableFlush is appended after KindStats so persisted numeric
	// kind values from earlier builds stay stable.
	KindMemtableFlush // diskstore flushed a memtable to an SSTable run (N = bytes written)
	KindPartReplay    // engine replayed a part's step after its shard failed (N = attempt)
	KindResume        // Resume restored a checkpoint (N = the checkpoint's step)
)

var kindNames = map[Kind]string{
	KindJobStart:         "job_start",
	KindJobEnd:           "job_end",
	KindStepStart:        "step_start",
	KindStepEnd:          "step_end",
	KindBarrier:          "barrier",
	KindPartCompute:      "part_compute",
	KindCombinerMerge:    "combiner_merge",
	KindCheckpoint:       "checkpoint",
	KindProgress:         "progress",
	KindQuiesce:          "quiesce",
	KindLogReplay:        "log_replay",
	KindCompaction:       "compaction",
	KindFault:            "fault",
	KindRetry:            "retry",
	KindFailoverRecovery: "failover_recovery",
	KindLoad:             "load",
	KindDeliver:          "deliver",
	KindRPC:              "rpc",
	KindRPCServer:        "rpc_server",
	KindStats:            "stats",
	KindMemtableFlush:    "memtable_flush",
	KindPartReplay:       "part_replay",
	KindResume:           "resume",
}

// kindByName is the reverse of kindNames, built once at init.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// KindByName resolves a snake_case kind name ("part_compute") or the
// numeric fallback form ("kind(42)") back to its Kind value.
func KindByName(name string) (Kind, bool) {
	if k, ok := kindByName[name]; ok {
		return k, true
	}
	var n uint8
	if _, err := fmt.Sscanf(name, "kind(%d)", &n); err == nil {
		return Kind(n), true
	}
	return 0, false
}

// String returns the kind's snake_case name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses a kind from either its name ("part_compute",
// including the "kind(N)" fallback form) or a bare number, so JSONL dumps
// round-trip through offline tooling.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err == nil {
		got, ok := KindByName(name)
		if !ok {
			return fmt.Errorf("trace: unknown span kind %q", name)
		}
		*k = got
		return nil
	}
	var n uint8
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("trace: span kind must be a name or number, got %s", b)
	}
	*k = Kind(n)
	return nil
}

// Span is one recorded event. At is the span's start, monotonic nanoseconds
// since the tracer was created; Dur is zero for instantaneous events. Part
// is -1 for events not tied to one part.
//
// Trace, Span, and Parent causally link events: all spans of one job run
// share a Trace ID, a span with a nonzero Span ID is addressable as a
// parent, and Parent points at the span that caused this one. All three are
// zero for unsampled runs and for legacy flat records, which keeps the flat
// ring behavior (and its JSONL shape) unchanged.
type Span struct {
	Seq    uint64            `json:"seq"`
	Kind   Kind              `json:"kind"`
	Job    string            `json:"job,omitempty"`
	Step   int               `json:"step,omitempty"`
	Part   int               `json:"part"`
	N      int64             `json:"n,omitempty"`
	At     time.Duration     `json:"at_ns"`
	Dur    time.Duration     `json:"dur_ns,omitempty"`
	Trace  uint64            `json:"trace,omitempty"`
	Span   uint64            `json:"span,omitempty"`
	Parent uint64            `json:"parent,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Tracer records spans into a bounded ring buffer.
type Tracer struct {
	mu      sync.Mutex
	start   time.Time
	buf     []Span
	next    int // ring write position
	seq     uint64
	dropped uint64
	wrapped bool
}

// DefaultCapacity is the span capacity used when New is given a
// non-positive one.
const DefaultCapacity = 16384

// New creates a tracer retaining at most capacity spans (DefaultCapacity if
// capacity <= 0).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{start: time.Now(), buf: make([]Span, 0, capacity)}
}

// Record appends one span. dur may be zero for instantaneous events; for
// timed spans the recorded At is backdated by dur so it marks the span's
// start. Safe for concurrent use; a nil tracer no-ops.
func (t *Tracer) Record(kind Kind, job string, step, part int, n int64, dur time.Duration) {
	if t == nil {
		return
	}
	t.RecordSpan(Span{Kind: kind, Job: job, Step: step, Part: part, N: n, Dur: dur})
}

// RecordSpan appends one span with explicit causal linkage (Trace, Span,
// Parent, Attrs). Seq is assigned by the tracer; a zero At is stamped as
// now minus Dur, so it marks the span's start. Safe for concurrent use; a
// nil tracer no-ops.
func (t *Tracer) RecordSpan(s Span) {
	if t == nil {
		return
	}
	if s.At == 0 {
		s.At = time.Since(t.start) - s.Dur
		if s.At < 0 {
			s.At = 0
		}
	}
	t.mu.Lock()
	t.seq++
	s.Seq = t.seq
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, s)
	} else {
		t.buf[t.next] = s
		t.next = (t.next + 1) % len(t.buf)
		t.dropped++
		t.wrapped = true
	}
	t.mu.Unlock()
}

// WallStart is the wall-clock instant the tracer's monotonic clock started;
// span At offsets are relative to it. A nil tracer reports the zero time.
func (t *Tracer) WallStart() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Len reports the number of retained spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Seq reports the last sequence number assigned, which is also the total
// number of spans ever recorded. It is the cursor value for SnapshotSince:
// a poller that remembers the Seq of its last drain sees each span once.
func (t *Tracer) Seq() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// SnapshotSince copies the retained spans with Seq > cursor, oldest first.
// It is the incremental drain behind the telemetry trace-dump op: a remote
// collector passes the last Seq it saw and receives only the tail. Spans
// that wrapped out of the ring before the cursor advanced past them are
// simply gone — compare Dropped across polls to detect that loss.
func (t *Tracer) SnapshotSince(cursor uint64) []Span {
	if t == nil {
		return nil
	}
	all := t.Snapshot()
	// Spans are seq-ordered in the ring; binary-search the cursor boundary.
	lo, hi := 0, len(all)
	for lo < hi {
		mid := (lo + hi) / 2
		if all[mid].Seq <= cursor {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(all) {
		return nil
	}
	out := make([]Span, len(all)-lo)
	copy(out, all[lo:])
	return out
}

// Dropped reports how many spans were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot copies the retained spans in recording order (oldest first).
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.buf))
	if t.wrapped {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// Reset discards all retained spans (the monotonic clock keeps running).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf = t.buf[:0]
	t.next = 0
	t.dropped = 0
	t.wrapped = false
	t.mu.Unlock()
}

// WriteJSONL dumps the retained spans as one JSON object per line, oldest
// first. A nil tracer writes nothing.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	for _, s := range t.Snapshot() {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}
