package ebsp

import (
	"fmt"
	"reflect"
	"sort"
	"sync"

	"ripple/internal/codec"
	"ripple/internal/kvstore"
)

// kvAccess is the key/value surface a part view and a table handle share.
type kvAccess interface {
	Get(key any) (any, bool, error)
	Put(key, value any) error
	Delete(key any) error
}

// slotState is where an execution slot's invocations read and write their
// state: collocated part views (the normal case), or whole-table handles
// under run-anywhere, where an invocation may execute away from its state.
// Every access is counted in the slot's record; deletes count as puts (both
// are writes).
type slotState struct {
	tabs []kvAccess
	rec  *partStepResult
}

func (s *slotState) get(tab int, key any) (any, bool, error) {
	s.rec.gets++
	return s.tabs[tab].Get(key)
}

func (s *slotState) put(tab int, key, value any) error {
	s.rec.puts++
	return s.tabs[tab].Put(key, value)
}

func (s *slotState) delete(tab int, key any) error {
	s.rec.puts++
	return s.tabs[tab].Delete(key)
}

// Context is the ComputeContext of paper Listing 3: a compute invocation's
// window onto its step number, key, state, input messages, outputs,
// aggregators, and broadcast data.
//
// A Context is valid only for the duration of the Compute invocation that
// received it. State-accessing methods report errors through the invocation
// (the step fails); message and aggregation methods cannot fail.
type Context struct {
	run  *jobRun
	step int
	key  any

	msgs      []any
	continued bool // enabled via continue signal (not only messages)

	state     *slotState
	writeback map[int]any // ReadWriteState registrations

	out       outSink
	aggPrev   map[string]any
	aggLocal  map[string]any // this part's partial aggregations
	broadcast kvstore.PartView

	err error // first state-access error, surfaced after the invocation
}

// StepNum reports the current step number. Steps are numbered from 1; under
// no-sync execution there are no steps and StepNum reports 0.
func (c *Context) StepNum() int { return c.step }

// Key identifies the component being invoked.
func (c *Context) Key() any { return c.key }

// InputMessages returns the messages sent to this component in the previous
// step (possibly combined by the job's message combiner), in deterministic
// (sender, send-order) order. The returned slice is owned by the platform;
// do not retain it past the invocation.
func (c *Context) InputMessages() []any { return c.msgs }

// ReadState returns this component's value in the tab-th state table.
func (c *Context) ReadState(tab int) (any, bool) {
	v, ok, err := c.state.get(tab, c.key)
	c.fail(err)
	return v, ok
}

// WriteState sets this component's value in the tab-th state table.
func (c *Context) WriteState(tab int, s any) {
	c.fail(c.state.put(tab, c.key, s))
	delete(c.writeback, tab)
}

// ReadWriteState reads this component's value and registers it to be written
// back when the invocation finishes, so in-place mutations of a mutable state
// object persist (paper Listing 3: readWriteState). A later WriteState or
// DeleteState for the same table supersedes the registration.
func (c *Context) ReadWriteState(tab int) (any, bool) {
	v, ok := c.ReadState(tab)
	if ok {
		if c.writeback == nil {
			c.writeback = make(map[int]any)
		}
		c.writeback[tab] = v
	}
	return v, ok
}

// DeleteState removes this component's value from the tab-th state table.
func (c *Context) DeleteState(tab int) {
	c.fail(c.state.delete(tab, c.key))
	delete(c.writeback, tab)
}

// CreateState requests creation of another component's state: the entry
// appears in the tab-th state table at the synchronization barrier.
// Conflicting creations are merged by the job's state combiner.
func (c *Context) CreateState(tab int, key, state any) {
	c.out.add(envelope{
		Dst:  key,
		Kind: kindCreate,
		Val:  createPayload{Tab: tab, State: state},
	}, c.run)
}

// Send delivers a message to the component identified by key in the
// following step (enabling it).
func (c *Context) Send(key, msg any) {
	c.out.add(envelope{Dst: key, Kind: kindData, Val: msg}, c.run)
}

// AggregateValue feeds a value to the named aggregator; the combined result
// across all components is readable next step via AggregateResult.
// Unknown aggregator names are ignored (matching the platform's freedom to
// drop aggregations the job did not declare).
func (c *Context) AggregateValue(name string, value any) {
	agg, ok := c.run.job.Aggregators[name]
	if !ok {
		return
	}
	cur, ok := c.aggLocal[name]
	if !ok {
		cur = agg.Zero()
	}
	c.aggLocal[name] = agg.Combine(cur, value)
}

// AggregateResult reads the named aggregator's result from the previous step
// (nil before any input reached it).
func (c *Context) AggregateResult(name string) any { return c.aggPrev[name] }

// Broadcast reads a value from the job's reference table of immutable
// broadcast data (paper: getBroadcastDatum).
func (c *Context) Broadcast(key any) (any, bool) {
	if c.broadcast == nil {
		return nil, false
	}
	v, ok, err := c.broadcast.Get(key)
	c.fail(err)
	return v, ok
}

// DirectOutput emits one direct-job-output pair, handled by the job's
// DirectOutput exporter.
func (c *Context) DirectOutput(key, value any) {
	c.out.addDirect(key, value)
}

// fail records the first state-access error; the engine surfaces it when the
// invocation returns.
func (c *Context) fail(err error) {
	if err != nil && c.err == nil {
		c.err = err
	}
}

// finish applies pending ReadWriteState write-backs.
func (c *Context) finish() error {
	if c.err != nil {
		return c.err
	}
	if len(c.writeback) == 0 {
		return nil
	}
	tabs := make([]int, 0, len(c.writeback))
	for tab := range c.writeback {
		tabs = append(tabs, tab)
	}
	sort.Ints(tabs)
	for _, tab := range tabs {
		if err := c.state.put(tab, c.key, c.writeback[tab]); err != nil {
			return err
		}
	}
	return nil
}

// outSink receives a compute invocation's outputs. The sync path buffers
// them into spills (outBuffer); the no-sync path sends them straight to the
// destination queues (queueSink).
type outSink interface {
	add(env envelope, run *jobRun)
	addDirect(key, value any)
}

// outBuffer accumulates one execution slot's outgoing envelopes, batched per
// destination part, plus its direct output. It also performs sender-side
// pairwise combining when the job has a message combiner. What it emits,
// combines and writes is counted in the slot's record; an envelope's Seq is
// the number of envelopes the slot emitted before it.
type outBuffer struct {
	srcPart  int
	partOf   func(key any) int
	combiner MessageCombiner
	rec      *partStepResult

	batches map[int][]envelope
	dataIdx map[int]map[any]int // dstPart -> key -> index of data envelope
	direct  []kvPair

	// trace/span are the causal context stamped into every outgoing
	// envelope; zero for unsampled runs (and then never written to the
	// wire). Sender-side combining keeps the first envelope, so a combined
	// message's provenance stays with the slot that produced it.
	trace uint64
	span  uint64
}

type kvPair struct {
	key, value any
}

func newOutBuffer(srcPart int, partOf func(any) int, combiner MessageCombiner, rec *partStepResult) *outBuffer {
	return &outBuffer{
		srcPart:  srcPart,
		partOf:   partOf,
		combiner: combiner,
		rec:      rec,
		batches:  make(map[int][]envelope),
		dataIdx:  make(map[int]map[any]int),
	}
}

func (b *outBuffer) add(env envelope, run *jobRun) {
	dst := b.partOf(env.Dst)
	env.Src = b.srcPart
	if b.trace != 0 {
		env.Trace, env.Span = b.trace, b.span
	}
	env.Seq = int(b.rec.emitted)
	if env.Kind == kindData && b.combiner != nil && keyComparable(env.Dst) {
		idx := b.dataIdx[dst]
		if idx == nil {
			idx = make(map[any]int)
			b.dataIdx[dst] = idx
		}
		if i, ok := idx[env.Dst]; ok {
			prev := &b.batches[dst][i]
			prev.Val = b.combiner.CombineMessages(env.Dst, prev.Val, env.Val)
			b.rec.merged++
			return
		}
		idx[env.Dst] = len(b.batches[dst])
	}
	b.batches[dst] = append(b.batches[dst], env)
	b.rec.emitted++
	// Continue/create markers ride the same spills but are not messages.
	if env.Kind == kindData {
		b.rec.sent++
	}
}

func (b *outBuffer) addDirect(key, value any) {
	b.direct = append(b.direct, kvPair{key: key, value: value})
}

// Per-type verdicts for keyComparable, keyed by reflect.Type.
const (
	comparableAlways uint8 = iota // values of this type always index a map
	comparableNever               // reflect says the type is not comparable
	comparableProbe               // comparable type that embeds an interface:
	// a dynamic value inside may still be incomparable, so probe per value
)

var comparableCache sync.Map // reflect.Type -> uint8

// keyComparable reports whether a key can index a Go map (slices, maps, and
// functions cannot). Uncombinable keys simply skip sender-side combining.
// The verdict is cached per concrete type, so the hot path is one sync.Map
// lookup instead of a map-insert probe under recover() per message; only
// interface-embedding types still pay the probe.
func keyComparable(k any) bool {
	if k == nil {
		return true
	}
	rt := reflect.TypeOf(k)
	v, ok := comparableCache.Load(rt)
	if !ok {
		v = classifyComparable(rt)
		comparableCache.Store(rt, v)
	}
	switch v.(uint8) {
	case comparableAlways:
		return true
	case comparableNever:
		return false
	default:
		return probeComparable(k)
	}
}

func classifyComparable(rt reflect.Type) uint8 {
	if !rt.Comparable() {
		return comparableNever
	}
	if mayHideIncomparable(rt) {
		return comparableProbe
	}
	return comparableAlways
}

// mayHideIncomparable reports whether a comparable type can still panic as a
// map key because an interface somewhere inside it may hold an incomparable
// dynamic value. Struct recursion terminates: a struct cannot contain
// itself by value.
func mayHideIncomparable(rt reflect.Type) bool {
	switch rt.Kind() {
	case reflect.Interface:
		return true
	case reflect.Struct:
		for i := 0; i < rt.NumField(); i++ {
			if mayHideIncomparable(rt.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return mayHideIncomparable(rt.Elem())
	default:
		return false
	}
}

// probeComparable is the slow per-value check for interface-embedding types.
func probeComparable(k any) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	_ = map[any]struct{}{k: {}}
	return true
}

// flushSpills writes the buffered batches to the transport table for
// delivery at step. Same-part batches are written through the local view
// (no partition crossing); cross-part batches go through the table handle,
// in parallel — remote writes overlap, the way a real BSP implementation
// overlaps its end-of-step sends.
func (b *outBuffer) flushSpills(run *jobRun, step int, transport kvstore.Table, local kvstore.PartView) error {
	dsts := make([]int, 0, len(b.batches))
	for dst := range b.batches {
		dsts = append(dsts, dst)
	}
	sort.Ints(dsts)
	var wg sync.WaitGroup
	errs := make([]error, len(dsts))
	for i, dst := range dsts {
		batch := b.batches[dst]
		if len(batch) == 0 {
			continue
		}
		key := spillKey{Step: step, Dst: dst, Src: b.srcPart}
		if local != nil && dst == b.srcPart {
			if err := local.Put(key, batch); err != nil {
				return fmt.Errorf("ebsp: write spill %+v: %w", key, err)
			}
			b.rec.spills++
			continue
		}
		payload := any(batch)
		if run.engine.prof != nil {
			// Cross-part batches are the traffic a real deployment would put
			// on the wire. Encode once: the same bytes feed the profiler's
			// size measurement and the store's boundary marshal (the store
			// detects codec.Encoded and performs only the decode half). On
			// encode failure fall through with the raw batch so the store
			// surfaces the error the same way it always has.
			if enc, err := codec.PreEncode(batch); err == nil {
				b.rec.bytes += int64(enc.Size())
				payload = enc
			}
		}
		wg.Add(1)
		go func(i, dst int, key spillKey, payload any) {
			defer wg.Done()
			// Spill writes are idempotent (keyed by step/src/dst), so
			// retrying a transient failure is safe. step is the delivery
			// step: attribution lands on the sender's current-step record.
			errs[i] = run.retry(step-1, b.srcPart, func() error {
				return transport.Put(key, payload)
			})
		}(i, dst, key, payload)
		b.rec.spills++
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("ebsp: write spill to part %d: %w", dsts[i], err)
		}
	}
	return nil
}

// exportDirect hands buffered direct output to the job's exporter,
// serialized by the run's mutex.
func (b *outBuffer) exportDirect(run *jobRun) error {
	if len(b.direct) == 0 || run.job.DirectOutput == nil {
		return nil
	}
	run.directMu.Lock()
	defer run.directMu.Unlock()
	for _, p := range b.direct {
		if err := run.job.DirectOutput.Export(p.key, p.value); err != nil {
			return fmt.Errorf("ebsp: direct output: %w", err)
		}
	}
	b.direct = b.direct[:0]
	return nil
}

// LoadContext is what Loaders use to establish a job's initial condition:
// initial messages, initial component states, additional enabled components,
// and initial aggregator inputs (paper §II).
type LoadContext struct {
	run *jobRun

	mu       sync.Mutex
	envs     []envelope
	aggs     map[string]any
	puts     []statePut
	messages int64
}

type statePut struct {
	tab        int
	key, value any
}

// SendMessage queues an initial message, delivered (and enabling its
// receiver) in the job's first step.
func (lc *LoadContext) SendMessage(key, msg any) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.envs = append(lc.envs, envelope{Dst: key, Kind: kindData, Val: msg, Src: -1, Seq: len(lc.envs)})
	lc.messages++
}

// Enable marks the component enabled for the first step even without
// messages.
func (lc *LoadContext) Enable(key any) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.envs = append(lc.envs, envelope{Dst: key, Kind: kindContinue, Src: -1, Seq: len(lc.envs)})
}

// PutState writes an initial component state into the tab-th state table.
func (lc *LoadContext) PutState(tab int, key, state any) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.puts = append(lc.puts, statePut{tab: tab, key: key, value: state})
}

// AggregateValue supplies an initial input to the named aggregator; the
// result is readable in the first step.
func (lc *LoadContext) AggregateValue(name string, value any) {
	agg, ok := lc.run.job.Aggregators[name]
	if !ok {
		return
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	cur, ok := lc.aggs[name]
	if !ok {
		cur = agg.Zero()
	}
	lc.aggs[name] = agg.Combine(cur, value)
}
