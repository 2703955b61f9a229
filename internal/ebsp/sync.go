package ebsp

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ripple/internal/codec"
	"ripple/internal/kvstore"
	"ripple/internal/profile"
	"ripple/internal/trace"
)

// partMetaKey addresses the completed-step record of one part in the
// recovery meta table; it is pinned to its part.
type partMetaKey struct{ Part int }

// KeyHash implements codec.KeyHasher.
func (k partMetaKey) KeyHash() uint64 { return uint64(k.Part) }

// aggPartialKey addresses one part's partial aggregations for one step in
// the auxiliary aggregation table (large-aggregator-set path).
type aggPartialKey struct {
	Step int
	Part int
}

// KeyHash implements codec.KeyHasher.
func (k aggPartialKey) KeyHash() uint64 { return uint64(k.Part) }

func init() {
	codec.Register(partMetaKey{})
	codec.Register(aggPartialKey{})
	codec.Register(map[string]any{})
}

// runSync executes the job with synchronization barriers between steps
// (paper §IV-A): spills through the transport table, barrier, deliver,
// compute, repeat until no components are enabled.
func (run *jobRun) runSync(lc *LoadContext) (*Result, error) {
	if err := run.writeInitialSpills(lc); err != nil {
		return nil, err
	}
	if err := run.setupAggTables(); err != nil {
		return nil, err
	}
	// A step-0 checkpoint makes the job recoverable from the very start, so
	// a failover before the first periodic checkpoint can still heal-and-
	// rerun instead of failing the job.
	if run.engine.checkpointEvery > 0 {
		if err := run.openCheckpoint(true); err != nil {
			return nil, err
		}
		if err := run.checkpoint(0, int64(len(lc.envs))); err != nil {
			return nil, err
		}
	}
	return run.syncLoop(0, int64(len(lc.envs)))
}

// setupAggTables creates the "couple of auxiliary tables" (§IV-A) when the
// job has more aggregators than the client-side threshold: per-part
// partials, and a ubiquitous results table every part can read locally next
// step.
func (run *jobRun) setupAggTables() error {
	if len(run.job.Aggregators) <= run.engine.aggTabTh {
		return nil
	}
	var err error
	if run.aggPartials, err = run.privateTable("transport.aggpartials", kvstore.ConsistentWith(run.placement.Name())); err != nil {
		return err
	}
	if run.aggResults, err = run.privateTable("transport.aggresults", kvstore.Ubiquitous()); err != nil {
		return err
	}
	return run.publishAggregates(-1)
}

// publishAggregates writes the readable aggregator results, run.aggPrev, to
// the ubiquitous results table on the large-aggregator-set path.
func (run *jobRun) publishAggregates(step int) error {
	if run.aggResults == nil {
		return nil
	}
	for name, v := range run.aggPrev {
		if err := run.retry(step, -1, func() error { return run.aggResults.Put(name, v) }); err != nil {
			return err
		}
	}
	return nil
}

// syncLoop drives the step/barrier loop from a completed step with `pending`
// undelivered envelopes; it also services checkpointing.
func (run *jobRun) syncLoop(completedStep int, pending int64) (*Result, error) {
	steps := completedStep
	aborted := false
	for pending > 0 {
		if err := run.ctx.Err(); err != nil {
			return nil, fmt.Errorf("ebsp: job %q cancelled after step %d: %w", run.job.Name, steps, err)
		}
		if run.job.MaxSteps > 0 && steps >= run.job.MaxSteps {
			break
		}
		step := steps + 1
		stepStart := time.Now()
		run.engine.tracer.RecordSpan(trace.Span{Kind: trace.KindStepStart, Job: run.job.Name,
			Step: step, Part: -1, N: pending,
			Trace: run.traceID, Span: run.spanID(step, -1), Parent: run.rootSpan})
		emitted, aggs, err := run.execStep(step)
		if err != nil {
			return nil, err
		}
		steps = step
		run.lastStep = step
		// Detect a failover that happened during the step before trusting
		// (or checkpointing) its writes.
		if ferr := run.checkFailover(step); ferr != nil {
			return nil, ferr
		}
		stepDur := time.Since(stepStart)
		run.engine.metrics.AddSteps(1)
		run.engine.metrics.AddBarriers(1)
		run.engine.metrics.StepDurations().ObserveDuration(stepDur)
		run.engine.metrics.InFlightEnvelopes().Set(emitted)
		run.engine.tracer.RecordSpan(trace.Span{Kind: trace.KindStepEnd, Job: run.job.Name,
			Step: step, Part: -1, N: emitted, Dur: stepDur,
			Trace: run.traceID, Span: run.spanID(step, -1), Parent: run.rootSpan})
		run.log.Debug("step complete", "step", step, "emitted", emitted, "dur", stepDur)
		run.aggPrev = aggs
		if err := run.notifyStep(StepInfo{
			Job:        run.job.Name,
			Step:       step,
			Emitted:    emitted,
			Aggregates: aggs,
			Duration:   stepDur,
		}); err != nil {
			return nil, err
		}
		if run.aggResults != nil {
			run.engine.metrics.AddAggregationRounds(1)
		}
		if err := run.publishAggregates(step); err != nil {
			return nil, err
		}
		// Checkpoint before consulting the aborter, so an aborted job can
		// still be resumed from this barrier.
		if run.engine.checkpointEvery > 0 && emitted > 0 && step%run.engine.checkpointEvery == 0 {
			ckptStart := time.Now()
			if err := run.checkpoint(step, emitted); err != nil {
				return nil, err
			}
			ckptDur := time.Since(ckptStart)
			run.engine.metrics.CheckpointWrites().ObserveDuration(ckptDur)
			run.engine.tracer.RecordSpan(trace.Span{Kind: trace.KindCheckpoint, Job: run.job.Name,
				Step: step, Part: -1, N: emitted, Dur: ckptDur,
				Trace: run.traceID, Parent: run.rootSpan})
			run.log.Debug("checkpoint written", "step", step, "pending", emitted, "dur", ckptDur)
		}
		if run.job.Aborter != nil && run.job.Aborter.ShouldAbort(step, aggs) {
			aborted = true
			break
		}
		pending = emitted
	}
	if run.engine.checkpointEvery > 0 && !aborted {
		if err := run.dropCheckpoint(); err != nil {
			return nil, err
		}
	}
	return &Result{Steps: steps, Aggregates: run.aggPrev, Aborted: aborted}, nil
}

// writeInitialSpills turns the loaders' initial messages and enablements into
// step-1 spills in the transport table.
func (run *jobRun) writeInitialSpills(lc *LoadContext) error {
	if len(lc.envs) == 0 {
		return nil
	}
	byDst := make(map[int][]envelope)
	for _, env := range lc.envs {
		if run.sampled {
			// Loader-injected envelopes descend from the load span.
			env.Trace, env.Span = run.traceID, run.loadSpan
		}
		dst := run.placement.PartOf(env.Dst)
		byDst[dst] = append(byDst[dst], env)
	}
	dsts := slices.Sorted(maps.Keys(byDst))
	run.engine.metrics.AddSpills(int64(len(dsts)))
	if _, err := fanOut(len(dsts), func(i int) (any, error) {
		// Attributed to (step 1, dst): the fault delays that part's step-1
		// input.
		return nil, run.retry(1, dsts[i], func() error {
			return run.transport.Put(spillKey{Step: 1, Dst: dsts[i], Src: -1}, byDst[dsts[i]])
		})
	}); err != nil {
		return fmt.Errorf("ebsp: initial spill: %w", err)
	}
	// lc.envs also carries Enable markers (kindContinue) and CreateState
	// requests; only the loader's actual messages count as sent.
	run.engine.metrics.AddMessagesSent(lc.messages)
	return nil
}

// partStepResult is the one record every execution slot fills — a part's
// step, a run-anywhere worker, or a no-sync worker session (step 0, no
// barrier). Its counts are slot-private and plain; observePartStats alone
// publishes them.
type partStepResult struct {
	aggs map[string]any // this slot's partial aggregations
	envs []envelope     // run-anywhere drain: the part's data envelopes for the workers

	invoked int64 // compute invocations (enabled components)
	msgsIn  int64 // envelopes delivered to the slot
	emitted int64 // envelopes emitted, all kinds, after combining
	sent    int64 // of which data messages (messages_sent)
	merged  int64 // messages eliminated by the combiner, both sides
	spills  int64 // spill batches written
	gets    int64 // state-table gets
	puts    int64 // state-table puts and deletes
	bytes   int64 // encoded size of cross-part spill batches (measured only while profiling)

	startNS int64         // profiler clock at slot start
	dur     time.Duration // slot wall time
	wait    time.Duration // of which blocked on input: spill drain, or queue reads
}

// execStep runs one step across all parts, publishes the computing slots'
// measurements, and merges their aggregations. Every part drains in place;
// pinned, it also computes there, while under run-anywhere (§II-A) its data
// envelopes go to a worker pool that may run any component's compute
// anywhere — the strategy moves only the compute stage. It returns the
// number of envelopes emitted for the next step.
func (run *jobRun) execStep(step int) (int64, map[string]any, error) {
	results, err := fanOut(run.parts, func(p int) (*partStepResult, error) {
		return run.execPartStep(step, p)
	})
	if err != nil {
		return 0, nil, err
	}
	first := 0 // slot number of results[0]
	if run.strategy.RunAnywhere {
		var tasks []envelope
		for _, r := range results {
			tasks = append(tasks, r.envs...)
		}
		var next atomic.Int64
		results, err = fanOut(min(runtime.NumCPU(), len(tasks)), func(w int) (*partStepResult, error) {
			return run.stealWorker(step, w, tasks, &next)
		})
		if err != nil {
			return 0, nil, err
		}
		first = run.parts
	}
	var emitted int64
	for _, r := range results {
		emitted += r.emitted
	}
	run.observePartStats(step, first, results)
	aggs, err := run.mergeAggregations(step, results)
	if err != nil {
		return 0, nil, err
	}
	return emitted, aggs, nil
}

// fanOut runs f for slots 0..n-1 concurrently and returns their results, or
// the lowest-numbered slot's error.
func fanOut[T any](n int, f func(slot int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// observePartStats is the one publisher of execution-slot records. It turns
// one step's records into Collector counters, compute-time and barrier-wait
// histograms (each slot idles behind the step's slowest one), per-slot spans,
// profiler records, per-slot debug lines, skew gauges, the combiner's
// effectiveness and the enabled-component gauge (selective enablement in
// action). Slots are numbered from first: parts are 0..parts-1, and
// run-anywhere workers parts+w, since their computes detach from any part.
// A no-sync worker session publishes its record alone, at step 0: with no
// barrier it books only counters, its span (sampled runs only), its profile
// record and its debug line, and its compute time excludes its queue wait.
func (run *jobRun) observePartStats(step, first int, results []*partStepResult) {
	m, tr, prof := run.engine.metrics, run.engine.tracer, run.engine.prof
	debug := run.debugEnabled()
	if m == nil && tr == nil && prof == nil && !debug {
		return
	}
	barrier := step > 0
	var slowest, fastest time.Duration
	var invoked int64
	straggler := first
	durs := make([]int64, len(results))
	for i, r := range results {
		if i == 0 || r.dur < fastest {
			fastest = r.dur
		}
		if r.dur > slowest {
			slowest = r.dur
			straggler = first + i
		}
		durs[i] = int64(r.dur)
		invoked += r.invoked
		m.AddComputeInvocations(r.invoked)
		m.AddMessagesSent(r.sent)
		m.AddMessagesCombined(r.merged)
		m.AddSpills(r.spills)
	}
	parent, logMsg := run.spanID(step, -1), "part step done"
	if !barrier {
		parent, logMsg = run.rootSpan, "no-sync worker done"
	}
	for i, r := range results {
		p := first + i
		compute := r.dur
		if barrier {
			m.PartComputes().ObserveDuration(r.dur)
			m.BarrierWaits().ObserveDuration(slowest - r.dur)
		} else {
			compute -= r.wait
		}
		if barrier || run.sampled {
			tr.RecordSpan(trace.Span{Kind: trace.KindPartCompute, Job: run.job.Name,
				Step: step, Part: p, N: r.invoked, Dur: r.dur,
				Trace: run.traceID, Span: run.spanID(step, p), Parent: parent})
		}
		if r.merged > 0 {
			tr.RecordSpan(trace.Span{Kind: trace.KindCombinerMerge, Job: run.job.Name,
				Step: step, Part: p, N: r.merged,
				Trace: run.traceID, Parent: run.spanID(step, p)})
		}
		prof.Record(profile.StepProfile{
			Job:             run.job.Name,
			Step:            step,
			Part:            p,
			StartNS:         r.startNS,
			ComputeNS:       int64(compute),
			BarrierWaitNS:   int64(slowest - r.dur),
			QueueWaitNS:     int64(r.wait),
			MsgsIn:          r.msgsIn,
			MsgsOut:         r.emitted,
			MarshalledBytes: r.bytes,
			CombinerHits:    r.merged,
			StoreGets:       r.gets,
			StorePuts:       r.puts,
			Enabled:         r.invoked,
		})
		if debug {
			run.partLogger(step, p).Debug(logMsg,
				"invoked", r.invoked, "msgs_in", r.msgsIn, "emitted", r.emitted)
		}
	}
	if !barrier {
		return
	}
	m.EnabledComponents().Set(invoked)
	m.StepSkewRatio().Set(profile.SkewRatio(durs))
	m.StragglerPart().Set(int64(straggler))
	tr.RecordSpan(trace.Span{Kind: trace.KindBarrier, Job: run.job.Name,
		Step: step, Part: -1, N: int64(len(results)), Dur: slowest - fastest,
		Trace: run.traceID, Parent: run.spanID(step, -1)})
}

// execPartStep runs one part's share of a step, with replay-based recovery
// when the strategy calls for it. A run-anywhere part only drains, and its
// computes run outside the part where a transaction could not roll them
// back, so it is always a plain agent. Dispatch-entry faults are transient
// and happen before any agent code runs, so retrying the dispatch is safe;
// transient failures from inside the agent are retried (and, when
// exhausted, de-tagged) at their own operation, so they never reach it.
func (run *jobRun) execPartStep(step, part int) (*partStepResult, error) {
	var res any
	dispatch := func() (err error) {
		res, err = run.engine.store.RunAgent(run.placement.Name(), part, run.stepAgent(step, part))
		return err
	}
	fast := run.strategy.FastRecovery && !run.strategy.RunAnywhere
	if fast {
		tx := run.engine.store.(kvstore.Transactional)
		dispatch = func() (err error) {
			res, err = tx.RunTransaction(run.placement.Name(), part, run.recoveryAgent(step, part))
			return err
		}
	}
	err := run.retry(step, part, dispatch)
	// Under fast recovery a failed primary rolled the transaction back (its
	// local writes and spill deletions are undone), and spills it wrote to
	// other parts are idempotent (keyed by step/src/dst), so — because the
	// job is deterministic — simply replaying the part's step is correct
	// (paper §IV-A fault-tolerance outline).
	for replay := 1; fast && errors.Is(err, kvstore.ErrShardFailed); replay++ {
		if replay > run.engine.retries {
			return nil, fmt.Errorf("ebsp: part %d step %d unrecovered after %d replays: %w",
				part, step, run.engine.retries, err)
		}
		run.recordRecovery(trace.KindPartReplay, step, part, int64(replay), 0, err)
		err = run.retry(step, part, dispatch)
	}
	if err != nil {
		return nil, err
	}
	return res.(*partStepResult), nil
}

// recoveryAgent wraps the step agent to also record the part's completed
// step in the meta table, inside the same transaction.
func (run *jobRun) recoveryAgent(step, part int) kvstore.Agent {
	inner := run.stepAgent(step, part)
	return func(sv kvstore.ShardView) (any, error) {
		res, err := inner(sv)
		if err != nil {
			return nil, err
		}
		meta, err := sv.View(run.metaTable.Name())
		if err != nil {
			return nil, err
		}
		if err := meta.Put(partMetaKey{Part: part}, step); err != nil {
			return nil, err
		}
		return res, nil
	}
}

// stepAgent is the mobile code for one part's step: drain spills, deliver,
// invoke computes, flush outgoing spills. Under run-anywhere it is only the
// drain stage: it applies the creates and hands the data envelopes back for
// the worker pool.
func (run *jobRun) stepAgent(step, part int) kvstore.Agent {
	return func(sv kvstore.ShardView) (res any, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("ebsp: part %d step %d: compute panicked: %v", part, step, r)
			}
		}()
		rec := &partStepResult{startNS: run.engine.prof.Now()}
		partStart := time.Now()
		transport, err := sv.View(run.transport.Name())
		if err != nil {
			return nil, err
		}
		envs, err := drainSpills(transport, step)
		rec.wait = time.Since(partStart)
		if err != nil {
			return nil, err
		}
		// Deliver edges use the owning part's coordinates even when the
		// computes are stolen: causally, the messages arrived here.
		run.recordDeliverEdges(step, part, envs)
		st, err := run.partViews(sv, rec)
		if err != nil {
			return nil, err
		}
		if run.strategy.RunAnywhere {
			if err := run.applyCreates(envs, st); err != nil {
				return nil, err
			}
			data := envs[:0:0]
			for _, env := range envs {
				if env.Kind == kindData {
					data = append(data, env)
				}
			}
			return &partStepResult{envs: data}, nil
		}
		hintReadAhead(st.tabs, envs)
		bview, err := run.broadcastView(sv)
		if err != nil {
			return nil, err
		}
		aggPrev, err := run.readAggPrev(sv)
		if err != nil {
			return nil, err
		}
		slot := run.newComputeSlot(step, part, st, aggPrev, bview)
		if err := run.applyCreates(envs, st); err != nil {
			return nil, err
		}
		if run.strategy.Collect {
			err = deliverCollected(envs, run.strategy.Sort, run.job.combiner(), &rec.merged, slot.invoke)
		} else {
			err = deliverUncollected(envs, run.strategy.Sort, run.job.Properties.OneMsg, slot.invoke)
		}
		if err != nil {
			return nil, err
		}
		if err := slot.finish(transport); err != nil {
			return nil, err
		}
		rec.msgsIn = int64(len(envs))
		rec.dur = time.Since(partStart)
		if run.aggPartials != nil {
			partials, err := sv.View(run.aggPartials.Name())
			if err != nil {
				return nil, err
			}
			if err := partials.Put(aggPartialKey{Step: step, Part: part}, rec.aggs); err != nil {
				return nil, err
			}
			rec.aggs = nil // merged through the table path instead
		}
		return rec, nil
	}
}

// stealWorker is worker slot w of run-anywhere's compute stage: it takes
// tasks (each data envelope is one invocation) regardless of placement,
// reaches the (rarely used) state through whole-table handles, and writes its
// spills as source part parts+w, which keeps spill keys unique per writer.
func (run *jobRun) stealWorker(step, w int, tasks []envelope, next *atomic.Int64) (res *partStepResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("ebsp: run-anywhere worker %d: compute panicked: %v", w, r)
		}
	}()
	rec := &partStepResult{startNS: run.engine.prof.Now()}
	start := time.Now()
	var bview kvstore.PartView
	if run.refTable != nil {
		bview = &remoteBroadcast{table: run.refTable}
	}
	st := &slotState{tabs: make([]kvAccess, len(run.stateTables)), rec: rec}
	for i, t := range run.stateTables {
		st.tabs[i] = t
	}
	slot := run.newComputeSlot(step, run.parts+w, st, run.aggPrev, bview)
	msgBuf := make([]any, 1)
	for i := next.Add(1) - 1; i < int64(len(tasks)); i = next.Add(1) - 1 {
		msgBuf[0] = tasks[i].Val
		if err := slot.invoke(tasks[i].Dst, msgBuf, false); err != nil {
			return nil, err
		}
	}
	if err := slot.finish(nil); err != nil {
		return nil, err
	}
	rec.msgsIn = rec.invoked
	rec.dur = time.Since(start)
	return rec, nil
}

// computeSlot is the compute stage of one execution slot — a part running
// its own components, or a run-anywhere worker running stolen ones: it builds
// each invocation's Context, buffers the slot's output and counts its work in
// the slot's record.
type computeSlot struct {
	run       *jobRun
	step      int
	state     *slotState
	out       *outBuffer
	aggPrev   map[string]any
	broadcast kvstore.PartView
}

func (run *jobRun) newComputeSlot(step, slot int, state *slotState, aggPrev map[string]any,
	broadcast kvstore.PartView) *computeSlot {

	state.rec.aggs = make(map[string]any)
	c := &computeSlot{
		run:       run,
		step:      step,
		state:     state,
		out:       newOutBuffer(slot, run.placement.PartOf, run.job.combiner(), state.rec),
		aggPrev:   aggPrev,
		broadcast: broadcast,
	}
	if run.sampled {
		c.out.trace, c.out.span = run.traceID, run.spanID(step, slot)
	}
	return c
}

// invoke runs one component invocation in this slot.
func (c *computeSlot) invoke(key any, msgs []any, continued bool) error {
	c.state.rec.invoked++
	c.run.engine.prof.ObserveKey(c.run.job.Name, key, int64(len(msgs)))
	return c.run.invokeCompute(&Context{
		run:       c.run,
		step:      c.step,
		key:       key,
		msgs:      msgs,
		continued: continued,
		state:     c.state,
		out:       c.out,
		aggPrev:   c.aggPrev,
		aggLocal:  c.state.rec.aggs,
		broadcast: c.broadcast,
	}, c.out)
}

// finish writes the slot's spills for the next step — same-part batches
// through local when the slot is a part — and its direct output.
func (c *computeSlot) finish(local kvstore.PartView) error {
	if err := c.out.flushSpills(c.run, c.step+1, c.run.transport, local); err != nil {
		return err
	}
	return c.out.exportDirect(c.run)
}

// hintReadAhead names the step's enabled keys — the only keys its creates and
// computes can read — to every state view that can batch reads. The key slice
// is built only once such a view exists, so stores without the capability
// pay a failed type assertion per state table and nothing else.
func hintReadAhead(views []kvAccess, envs []envelope) {
	var keys []any
	for _, view := range views {
		ra, ok := view.(kvstore.ReadAheader)
		if !ok {
			continue
		}
		if keys == nil {
			seen := make(map[any]struct{}, len(envs))
			for _, env := range envs {
				if _, dup := seen[env.Dst]; !dup {
					seen[env.Dst] = struct{}{}
					keys = append(keys, env.Dst)
				}
			}
		}
		ra.ReadAhead(keys)
	}
}

// invokeCompute runs one component invocation: compute, continue-signal
// handling, and write-back finalization.
func (run *jobRun) invokeCompute(ctx *Context, out outSink) error {
	cont := run.job.Compute.Compute(ctx)
	if err := ctx.finish(); err != nil {
		return fmt.Errorf("ebsp: component %v step %d: %w", ctx.key, ctx.step, err)
	}
	if cont {
		if run.job.Properties.NoContinue {
			return fmt.Errorf("%w: no-continue job returned the positive continue signal (key %v)",
				ErrPropertyViolated, ctx.key)
		}
		// The continue signal is a special kind of BSP message to self
		// (§IV-A): the basic mechanism is driven purely by messages.
		out.add(envelope{Dst: ctx.key, Kind: kindContinue}, run)
	}
	return nil
}

// drainSpills reads and deletes this part's spills for the given step,
// returning the envelopes in deterministic (source, sequence) order.
func drainSpills(transport kvstore.PartView, step int) ([]envelope, error) {
	type batch struct {
		key  spillKey
		envs []envelope
	}
	var batches []batch
	err := transport.Enumerate(func(k, v any) (bool, error) {
		sk, ok := k.(spillKey)
		if !ok || sk.Step != step {
			// Spills for the following step may already be arriving from
			// parts that are ahead; leave them.
			return false, nil
		}
		batches = append(batches, batch{key: sk, envs: v.([]envelope)})
		return false, nil
	})
	if err != nil {
		return nil, fmt.Errorf("ebsp: drain spills: %w", err)
	}
	sort.Slice(batches, func(i, j int) bool { return batches[i].key.Src < batches[j].key.Src })
	var envs []envelope
	for _, b := range batches {
		envs = append(envs, b.envs...)
		if err := transport.Delete(b.key); err != nil {
			return nil, fmt.Errorf("ebsp: delete spill: %w", err)
		}
	}
	return envs, nil
}

// applyCreates applies the CreateState requests among the envelopes,
// combining conflicts with the job's state combiner (last-writer-wins in
// deterministic order without one).
func (run *jobRun) applyCreates(envs []envelope, state *slotState) error {
	sc := run.job.stateCombiner()
	for _, env := range envs {
		if env.Kind != kindCreate {
			continue
		}
		cp := env.Val.(createPayload)
		if cp.Tab < 0 || cp.Tab >= len(run.stateTables) {
			return fmt.Errorf("%w: CreateState table index %d of %d", ErrBadJob, cp.Tab, len(run.stateTables))
		}
		newState := cp.State
		if existing, ok, err := state.get(cp.Tab, env.Dst); err != nil {
			return err
		} else if ok && sc != nil {
			newState = sc.CombineStates(env.Dst, existing, newState)
		}
		if err := state.put(cp.Tab, env.Dst, newState); err != nil {
			return err
		}
	}
	return nil
}

// inbox collects one component's delivery for a step.
type inbox struct {
	key     any
	msgs    []any
	enabled bool // saw a continue marker
}

// deliverCollected groups envelopes into per-component value lists (the
// "(key, value list) pairs ... in an appropriate local table", §IV-A) and
// invokes each enabled component once, counting combined messages in merged.
func deliverCollected(envs []envelope, ordered bool, combiner MessageCombiner,
	merged *int64, invoke func(key any, msgs []any, continued bool) error) error {

	index := make(map[any]*inbox)
	var order []*inbox
	lookup := func(key any) *inbox {
		ib, ok := index[key]
		if !ok {
			ib = &inbox{key: key}
			index[key] = ib
			order = append(order, ib)
		}
		return ib
	}
	for _, env := range envs {
		switch env.Kind {
		case kindData:
			ib := lookup(env.Dst)
			if combiner != nil && len(ib.msgs) > 0 {
				ib.msgs[len(ib.msgs)-1] = combiner.CombineMessages(env.Dst, ib.msgs[len(ib.msgs)-1], env.Val)
				*merged++
			} else {
				ib.msgs = append(ib.msgs, env.Val)
			}
		case kindContinue:
			lookup(env.Dst).enabled = true
		case kindCreate:
			// already applied
		}
	}
	if ordered {
		sort.Slice(order, func(i, j int) bool {
			return codec.CompareKeys(order[i].key, order[j].key) < 0
		})
	}
	for _, ib := range order {
		if err := invoke(ib.key, ib.msgs, ib.enabled); err != nil {
			return err
		}
	}
	return nil
}

// deliverUncollected is the no-collect special case (§II-A): with at most one
// message per destination and step and no continue signals, each envelope is
// an invocation — no value lists are built.
func deliverUncollected(envs []envelope, ordered, oneMsg bool,
	invoke func(key any, msgs []any, continued bool) error) error {

	data := envs[:0:0]
	for _, env := range envs {
		switch env.Kind {
		case kindData, kindContinue:
			// A loader may Enable components even in a no-collect job; a
			// continue marker is an invocation with no messages.
			data = append(data, env)
		}
	}
	if ordered {
		sort.SliceStable(data, func(i, j int) bool {
			return codec.CompareKeys(data[i].Dst, data[j].Dst) < 0
		})
	}
	if oneMsg {
		seen := make(map[any]bool, len(data))
		for _, env := range data {
			if env.Kind == kindData && keyComparable(env.Dst) {
				if seen[env.Dst] {
					return fmt.Errorf("%w: one-msg job received two messages for key %v",
						ErrPropertyViolated, env.Dst)
				}
				seen[env.Dst] = true
			}
		}
	}
	msgBuf := make([]any, 1)
	for _, env := range data {
		if env.Kind == kindContinue {
			if err := invoke(env.Dst, nil, true); err != nil {
				return err
			}
			continue
		}
		msgBuf[0] = env.Val
		if err := invoke(env.Dst, msgBuf, false); err != nil {
			return err
		}
	}
	return nil
}

// remoteBroadcast adapts a whole-table handle to the PartView shape Context
// uses for broadcast reads.
type remoteBroadcast struct {
	table kvstore.Table
}

var _ kvstore.PartView = (*remoteBroadcast)(nil)

func (rb *remoteBroadcast) Table() string { return rb.table.Name() }
func (rb *remoteBroadcast) Part() int     { return 0 }
func (rb *remoteBroadcast) Get(key any) (any, bool, error) {
	return rb.table.Get(key)
}
func (rb *remoteBroadcast) Put(key, value any) error { return rb.table.Put(key, value) }
func (rb *remoteBroadcast) Delete(key any) error     { return rb.table.Delete(key) }
func (rb *remoteBroadcast) Len() (int, error)        { return rb.table.Size() }
func (rb *remoteBroadcast) Enumerate(fn kvstore.PairFunc) error {
	return kvstore.EnumerateAll(rb.table, fn)
}
func (rb *remoteBroadcast) EnumerateOrdered(fn kvstore.PairFunc) error {
	return kvstore.EnumerateAll(rb.table, fn)
}

// mergeAggregations merges the step's partial aggregations: client-side for
// a modest number of aggregators, through the auxiliary tables and another
// round of enumeration for a large number (§IV-A). Run-anywhere workers are
// not parts and write no partials, so their aggregations always merge here.
func (run *jobRun) mergeAggregations(step int, results []*partStepResult) (map[string]any, error) {
	if run.aggPartials == nil || run.strategy.RunAnywhere {
		merged := make(map[string]any, len(run.job.Aggregators))
		for name, agg := range run.job.Aggregators {
			cur, saw := agg.Zero(), false
			for _, r := range results {
				if v, ok := r.aggs[name]; ok {
					cur, saw = agg.Combine(cur, v), true
				}
			}
			if saw {
				merged[name] = cur
			}
		}
		return merged, nil
	}
	// Table path: combine partials via a round of part enumeration.
	res, err := run.aggPartials.EnumerateParts(kvstore.PartConsumerFuncs{
		ProcessFn: func(sv kvstore.ShardView) (any, error) {
			view, err := sv.View(run.aggPartials.Name())
			if err != nil {
				return nil, err
			}
			local := make(map[string]any)
			err = view.Enumerate(func(k, v any) (bool, error) {
				ak, ok := k.(aggPartialKey)
				if !ok || ak.Step != step {
					return false, nil
				}
				partial := v.(map[string]any)
				for name, pv := range partial {
					agg, ok := run.job.Aggregators[name]
					if !ok {
						continue
					}
					if cur, ok := local[name]; ok {
						local[name] = agg.Combine(cur, pv)
					} else {
						local[name] = pv
					}
				}
				return false, view.Delete(k)
			})
			return local, err
		},
		CombineFn: func(a, b any) (any, error) {
			am := a.(map[string]any)
			for name, bv := range b.(map[string]any) {
				agg, ok := run.job.Aggregators[name]
				if !ok {
					continue
				}
				if av, ok := am[name]; ok {
					am[name] = agg.Combine(av, bv)
				} else {
					am[name] = bv
				}
			}
			return am, nil
		},
	})
	if err != nil {
		return nil, fmt.Errorf("ebsp: merge aggregations: %w", err)
	}
	return res.(map[string]any), nil
}

// readAggPrev gives an agent the previous step's aggregation results: from
// memory on the small path, from the ubiquitous results table on the large
// path (redistribution, §IV-A).
func (run *jobRun) readAggPrev(sv kvstore.ShardView) (map[string]any, error) {
	if run.aggResults == nil {
		return run.aggPrev, nil
	}
	view, err := sv.View(run.aggResults.Name())
	if err != nil {
		return nil, err
	}
	out := make(map[string]any)
	err = view.Enumerate(func(k, v any) (bool, error) {
		out[k.(string)] = v
		return false, nil
	})
	return out, err
}
