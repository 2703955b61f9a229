// Package spispan times Ripple's two SPIs from the outside: decorators around
// kvstore.Store/Table/ShardView/PartView and mq.Queuing/Set/Reader record one
// span per call, plus per-operation counts, busy time and errors, without
// touching the program under test. The benchmark's traced pass wraps the
// store and queuing system it hands the engine; the untraced pass never
// imports a decorator, so end-to-end numbers carry no tracing cost.
//
// Calls made while no job is open (set-up, reloads, output checks) pass
// straight through unrecorded, so every count is per job.
package spispan

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Layer names the side of an SPI boundary a span's time belongs to.
type Layer uint8

const (
	// LayerJob is the benchmark's own span around one job.
	LayerJob Layer = iota
	// LayerStore is time inside a kvstore SPI call.
	LayerStore
	// LayerMQ is time inside an mq SPI call.
	LayerMQ
	// LayerEngine is code the store calls back into: an agent or part
	// consumer body. It is the engine's time, nested in a store dispatch.
	LayerEngine
)

var layerNames = [...]string{"job", "store", "mq", "ebsp"}

func (l Layer) String() string { return layerNames[l] }

// Op is the operation class of a span; counts and busy time are kept per Op.
type Op uint8

const (
	OpJob Op = iota
	OpGet
	OpPut
	OpDelete
	// OpEnumerate covers Size/Len and every enumeration entry point.
	OpEnumerate
	// OpAgent is a dispatch: RunAgent, RunTransaction, EnumerateParts. Its
	// span contains the OpBody spans of the code it dispatched.
	OpAgent
	// OpAdmin covers table create/lookup/drop, Flush and Heal.
	OpAdmin
	OpBody
	OpMQPut
	// OpMQRead is Read and TryRead: time a worker waited on its queue.
	OpMQRead
	OpMQAdmin
	numOps
)

var opNames = [numOps]string{"job", "get", "put", "delete", "enumerate", "agent", "admin", "body", "mq_put", "mq_read", "mq_admin"}

func (o Op) String() string { return opNames[o] }

// Span is one recorded call. IDs are 1-based slot numbers; Parent 0 means
// the span has no recorded parent. Times are nanoseconds since the
// recorder's epoch.
type Span struct {
	Parent int32
	Job    int32
	Layer  Layer
	Op     Op
	Start  int64
	End    int64
}

// OpStats are one operation class's totals over every recorded job.
type OpStats struct {
	Calls  int64
	BusyNS int64 // summed across goroutines
	Errors int64
}

type opCounters struct {
	calls, busy, errs atomic.Int64
}

// maxSamples bounds the boundary values kept for the codec rung.
const maxSamples = 512

// Recorder owns the span buffer and the counters. The buffer is allocated
// once; spans that do not fit are counted in Dropped and only their
// counters survive.
type Recorder struct {
	epoch   time.Time
	spans   []Span
	next    atomic.Int64
	dropped atomic.Int64

	// cur packs the open job's number (high 32 bits) and its span ID (low
	// 32 bits); noJob when no job is open.
	cur atomic.Int64

	ops [numOps]opCounters

	sampleMu sync.Mutex
	samples  []any
}

const noJob = int64(-1) << 32

// NewRecorder preallocates room for capacity spans.
func NewRecorder(capacity int) *Recorder {
	r := &Recorder{epoch: time.Now(), spans: make([]Span, capacity)}
	r.cur.Store(noJob)
	return r
}

// active is a span that has started but not ended.
type active struct {
	r     *Recorder
	id    int32 // 0 when the buffer was full
	op    Op
	start int64
}

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// start opens a span under parent (0 = the open job's span). While no job
// is open it returns an active that is off: ending it records nothing.
func (r *Recorder) start(layer Layer, op Op, parent int32) active {
	cur := r.cur.Load()
	if cur == noJob {
		return active{}
	}
	if parent == 0 {
		parent = int32(cur)
	}
	a := active{r: r, op: op, id: r.reserve(layer, op, parent, int32(cur>>32))}
	a.start = r.now()
	return a
}

func (a active) off() bool { return a.r == nil }

func (r *Recorder) reserve(layer Layer, op Op, parent, job int32) int32 {
	i := r.next.Add(1)
	if i > int64(len(r.spans)) {
		r.dropped.Add(1)
		return 0
	}
	r.spans[i-1] = Span{Parent: parent, Job: job, Layer: layer, Op: op}
	return int32(i)
}

// end closes the span and adds it to its operation's counters.
func (a active) end(err error) {
	if a.off() {
		return
	}
	end := a.r.now()
	if a.id != 0 {
		s := &a.r.spans[a.id-1]
		s.Start, s.End = a.start, end
	}
	c := &a.r.ops[a.op]
	c.calls.Add(1)
	c.busy.Add(end - a.start)
	if err != nil {
		c.errs.Add(1)
	}
}

// BeginJob opens job number job (>= 0); SPI calls are recorded until the
// returned function closes it. One job is open at a time: a workload with
// concurrent clients opens a single job around its whole timed region.
func (r *Recorder) BeginJob(job int) (end func()) {
	id := r.reserve(LayerJob, OpJob, 0, int32(job))
	start := r.now()
	r.cur.Store(int64(job)<<32 | int64(id))
	return func() {
		r.cur.Store(noJob)
		if id != 0 {
			s := &r.spans[id-1]
			s.Start, s.End = start, r.now()
		}
	}
}

// sample keeps a boundary value (one that crossed a Table.Put or a queue
// Put) for the codec rung, up to maxSamples.
func (r *Recorder) sample(v any) {
	r.sampleMu.Lock()
	if len(r.samples) < maxSamples {
		r.samples = append(r.samples, v)
	}
	r.sampleMu.Unlock()
}

// Samples returns the captured boundary values.
func (r *Recorder) Samples() []any {
	r.sampleMu.Lock()
	defer r.sampleMu.Unlock()
	return append([]any(nil), r.samples...)
}

// Spans returns the recorded spans, in start order of their slot
// reservation. Call it only after every job has ended.
func (r *Recorder) Spans() []Span {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// Dropped counts spans that did not fit the buffer.
func (r *Recorder) Dropped() int64 { return r.dropped.Load() }

// Stats returns one operation class's totals.
func (r *Recorder) Stats(op Op) OpStats {
	c := &r.ops[op]
	return OpStats{Calls: c.calls.Load(), BusyNS: c.busy.Load(), Errors: c.errs.Load()}
}

// WriteJSONL writes one JSON object per span:
//
//	{"id":7,"parent":3,"job":0,"layer":"store","op":"get","start":1200,"end":1650}
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var b []byte
	for i, s := range r.Spans() {
		b = b[:0]
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, int64(s.Parent), 10)
		b = append(b, `,"job":`...)
		b = strconv.AppendInt(b, int64(s.Job), 10)
		b = append(b, `,"layer":"`...)
		b = append(b, s.Layer.String()...)
		b = append(b, `","op":"`...)
		b = append(b, s.Op.String()...)
		b = append(b, `","start":`...)
		b = strconv.AppendInt(b, s.Start, 10)
		b = append(b, `,"end":`...)
		b = strconv.AppendInt(b, s.End, 10)
		b = append(b, "}\n"...)
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}
