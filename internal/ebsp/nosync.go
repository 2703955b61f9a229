package ebsp

import (
	"fmt"
	"sync/atomic"
	"time"

	"ripple/internal/kvstore"
	"ripple/internal/mq"
	"ripple/internal/termination"
	"ripple/internal/trace"
)

// noSyncPoll is how long an idle worker waits for a message before checking
// for distributed termination.
const noSyncPoll = 2 * time.Millisecond

// runSeq makes private table and queue-set names unique process-wide, so
// engines sharing one store or one mq.System never collide.
var runSeq atomic.Int64

// runNoSync executes a job with no synchronization barriers (paper §IV-A):
// one dispatch of EBSP implementation code to a queue set, whose instances
// invoke components and exchange messages until there is no more work to do.
// Distributed termination is detected by weight throwing (Huang's algorithm).
//
// Eligibility was established by planFor: the job has no aggregators and no
// aborter, and either tolerates arbitrary message grouping (incremental) or
// is no-collect with no step-order requirement. Per-(sender,receiver) message
// order is preserved by the FIFO queues. There are no steps, so StepNum
// reports 0 and the continue signal is meaningless (ignored).
func (run *jobRun) runNoSync(lc *LoadContext) (*Result, error) {
	sys := run.engine.mqSystem()
	// The run sequence number is its own dot-segment so name normalization
	// (chaos fault injection) sees a stable name across runs.
	qsName := fmt.Sprintf("__ebsp.%s.%d.q", run.job.Name, run.runID)
	qs, err := sys.CreateQueueSet(qsName, run.placement)
	if err != nil {
		return nil, fmt.Errorf("ebsp: create queue set: %w", err)
	}
	defer func() { _ = sys.DeleteQueueSet(qsName) }()

	det := termination.New()

	// Seed the initial messages, each carrying fresh weight. Seeds carry the
	// distinguished sender -1 and a monotonic sequence so receivers can shed
	// duplicated deliveries exactly like worker-to-worker traffic.
	for i, env := range lc.envs {
		w := det.Issue(termination.DefaultIssue)
		env.Src = -1
		env.Seq = i
		if run.sampled {
			// Seeds descend from the load span, like initial sync spills.
			env.Trace, env.Span = run.traceID, run.loadSpan
		}
		dst := run.placement.PartOf(env.Dst)
		qm := queueMsg{Env: env, Weight: uint64(w)}
		if err := run.retry(0, dst, func() error {
			return qs.Put(dst, qm)
		}); err != nil {
			return nil, fmt.Errorf("ebsp: seed message: %w", err)
		}
		// Continue/create markers ride the queue for enablement and weight
		// accounting but are not messages; in-flight tracking still covers
		// every envelope because termination hinges on all of them.
		if env.Kind == kindData {
			run.engine.metrics.AddMessagesSent(1)
		}
		run.engine.metrics.InFlightEnvelopes().Inc()
		run.sent.Add(1)
	}

	var failed atomic.Bool
	err = qs.Run(func(r mq.Reader) error {
		// Injected dispatch faults fire before the worker body runs, so a
		// retried dispatch never re-executes delivered work.
		return run.retry(0, r.Queue(), func() error {
			_, aerr := run.engine.store.RunAgent(run.placement.Name(), r.Queue(), func(sv kvstore.ShardView) (any, error) {
				return nil, run.noSyncWorker(sv, r, qs, det, &failed)
			})
			return aerr
		})
	})
	if err != nil {
		return nil, err
	}
	if derr := det.Err(); derr != nil {
		return nil, fmt.Errorf("ebsp: termination detection: %w", derr)
	}
	// The run quiesced: the final progress notification — the one observers
	// can always count on, however few envelopes flowed.
	if err := run.notifyProgress(ProgressInfo{
		Job:       run.job.Name,
		Part:      -1,
		Delivered: run.delivered.Load(),
		Sent:      run.sent.Load(),
		Quiescent: true,
	}); err != nil {
		return nil, err
	}
	return &Result{Steps: 0, Aggregates: run.aggPrev}, nil
}

// noSyncWorker is the mobile EBSP code running collocated with one part: it
// drains the part's queue, invoking a component per message, until the whole
// computation quiesces (or another worker fails).
func (run *jobRun) noSyncWorker(sv kvstore.ShardView, r mq.Reader, qs mq.Set,
	det *termination.Detector, failed *atomic.Bool) (err error) {

	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("ebsp: no-sync worker part %d: compute panicked: %v", sv.Part(), p)
		}
		if err != nil {
			failed.Store(true)
		}
	}()

	// The whole session is one step-0 record (no-sync has no steps): its
	// counts, its time, and the part of that time spent waiting on the queue
	// (blocked reads and empty polls). It is published when the session ends.
	rec := &partStepResult{startNS: run.engine.prof.Now()}
	start := time.Now()
	st, err := run.partViews(sv, rec)
	if err != nil {
		return err
	}
	bview, err := run.broadcastView(sv)
	if err != nil {
		return err
	}
	sink := &queueSink{
		run:     run,
		qs:      qs,
		det:     det,
		partOf:  run.placement.PartOf,
		srcPart: sv.Part(),
		rec:     rec,
	}

	// For sampled runs the session is the step-0 compute span, and the
	// envelopes it emits carry that span as their provenance. Incoming edges
	// are aggregated here, incrementally, because the session drains its
	// queue message-by-message rather than receiving one batch.
	var edges map[uint64]int64
	if run.sampled {
		sink.trace, sink.span = run.traceID, run.spanID(0, sv.Part())
		edges = make(map[uint64]int64)
	}
	defer func() {
		run.recordEdgeCounts(0, sv.Part(), edges)
		rec.dur = time.Since(start)
		run.observePartStats(0, sv.Part(), []*partStepResult{rec})
	}()

	// Per-sender dedup: queues preserve FIFO per (sender, receiver), so every
	// fresh message from a sender carries a sequence number at or above the
	// highest seen so far, and a redelivered duplicate sits strictly below it.
	next := make(map[int]int)

	for {
		if failed.Load() {
			return nil
		}
		if cerr := run.ctx.Err(); cerr != nil {
			failed.Store(true)
			return fmt.Errorf("ebsp: job %q cancelled: %w", run.job.Name, cerr)
		}
		readStart := time.Now()
		raw, ok, rerr := r.Read(noSyncPoll)
		rec.wait += time.Since(readStart)
		if rerr != nil {
			failed.Store(true)
			return fmt.Errorf("ebsp: no-sync worker part %d: %w", sv.Part(), rerr)
		}
		if !ok {
			if det.Quiescent() {
				run.engine.tracer.RecordSpan(trace.Span{
					Kind: trace.KindQuiesce, Job: run.job.Name, Part: sv.Part(),
					N: run.delivered.Load(), Trace: run.traceID, Parent: run.spanID(0, sv.Part()),
				})
				return nil
			}
			continue
		}
		qm := raw.(queueMsg)
		if qm.Env.Seq < next[qm.Env.Src] {
			// Duplicated delivery. Its weight is a phantom copy of the
			// original's — the original already returned it (or will), so the
			// duplicate is dropped whole: no processing, no weight return, no
			// delivery count.
			continue
		}
		next[qm.Env.Src] = qm.Env.Seq + 1
		rec.msgsIn++
		if edges != nil && qm.Env.Trace == run.traceID && qm.Env.Span != 0 {
			edges[qm.Env.Span]++
		}
		if qm.Env.Kind != kindCreate {
			rec.invoked++
			run.engine.prof.ObserveKey(run.job.Name, qm.Env.Dst, 1)
		}
		sink.held = termination.Weight(qm.Weight)
		if perr := run.processNoSyncMessage(qm.Env, st, bview, sink); perr != nil {
			_ = det.Return(sink.held)
			return perr
		}
		if sink.err != nil {
			perr := sink.err
			_ = det.Return(sink.held)
			return perr
		}
		if perr := sink.flushDirect(); perr != nil {
			_ = det.Return(sink.held)
			return perr
		}
		if rerr := det.Return(sink.held); rerr != nil {
			return rerr
		}
		sink.held = 0
		run.engine.metrics.InFlightEnvelopes().Dec()
		if perr := run.noSyncDelivered(sv.Part(), r); perr != nil {
			failed.Store(true)
			return perr
		}
	}
}

// noSyncDelivered counts one delivered envelope and fires the progress
// observer when the watermark is crossed — the no-sync counterpart of the
// per-step observer notification.
func (run *jobRun) noSyncDelivered(part int, r mq.Reader) error {
	d := run.delivered.Add(1)
	every := run.engine.progressEvery
	if every <= 0 {
		every = DefaultProgressEvery // trace-only watermarks without an observer
	}
	if d%every != 0 {
		return nil
	}
	run.engine.tracer.RecordSpan(trace.Span{
		Kind: trace.KindProgress, Job: run.job.Name, Part: part,
		N: d, Trace: run.traceID, Parent: run.spanID(0, part),
	})
	if run.engine.progress == nil {
		return nil
	}
	return run.notifyProgress(ProgressInfo{
		Job:       run.job.Name,
		Part:      part,
		Delivered: d,
		Sent:      run.sent.Load(),
		Queued:    int64(r.Len()),
	})
}

// processNoSyncMessage handles one delivered envelope: a state-creation
// request is applied directly; a data message or enablement marker becomes a
// compute invocation. The continue signal has no meaning without steps: the
// queue sink drops it (a no-continue job returning it is still a property
// violation).
func (run *jobRun) processNoSyncMessage(env envelope, state *slotState,
	bview kvstore.PartView, sink *queueSink) error {

	if env.Kind == kindCreate {
		return run.applyCreates([]envelope{env}, state)
	}
	ctx := &Context{
		run:       run,
		key:       env.Dst,
		continued: env.Kind == kindContinue,
		state:     state,
		out:       sink,
		aggPrev:   run.aggPrev,
		broadcast: bview,
	}
	if !ctx.continued {
		ctx.msgs = []any{env.Val}
	}
	return run.invokeCompute(ctx, sink)
}

// queueSink delivers a compute invocation's sends straight to the destination
// queues, splitting the held termination weight onto each outgoing message.
// What it sends is counted in the session's record; an envelope's Seq is the
// number of envelopes the session emitted before it.
type queueSink struct {
	run     *jobRun
	qs      mq.Set
	det     *termination.Detector
	partOf  func(any) int
	srcPart int
	rec     *partStepResult
	trace   uint64 // trace context stamped onto every send; zero when unsampled
	span    uint64 // the worker session's span ID
	held    termination.Weight
	direct  []kvPair
	err     error
}

var _ outSink = (*queueSink)(nil)

func (s *queueSink) add(env envelope, run *jobRun) {
	if env.Kind == kindContinue {
		return // meaningless without steps
	}
	env.Src = s.srcPart
	env.Seq = int(s.rec.emitted)
	s.rec.emitted++
	if s.trace != 0 {
		env.Trace, env.Span = s.trace, s.span
	}
	var give termination.Weight
	s.held, give = s.det.SplitOrBorrow(s.held)
	dst := s.partOf(env.Dst)
	qm := queueMsg{Env: env, Weight: uint64(give)}
	var err error
	if dst == s.srcPart {
		err = s.qs.PutLocal(dst, qm)
	} else {
		// Injected put faults fire before delivery, so a retried send never
		// double-delivers.
		err = s.run.retry(0, dst, func() error {
			return s.qs.Put(dst, qm)
		})
	}
	if err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("ebsp: no-sync send: %w", err)
		}
		_ = s.det.Return(give)
		return
	}
	// Create-state requests ride the queue but are not messages.
	if env.Kind == kindData {
		s.rec.sent++
	}
	run.engine.metrics.InFlightEnvelopes().Inc()
	run.sent.Add(1)
}

func (s *queueSink) addDirect(key, value any) {
	s.direct = append(s.direct, kvPair{key: key, value: value})
}

// flushDirect hands buffered direct output to the job's exporter.
func (s *queueSink) flushDirect() error {
	if len(s.direct) == 0 || s.run.job.DirectOutput == nil {
		s.direct = s.direct[:0]
		return nil
	}
	s.run.directMu.Lock()
	defer s.run.directMu.Unlock()
	for _, p := range s.direct {
		if err := s.run.job.DirectOutput.Export(p.key, p.value); err != nil {
			return fmt.Errorf("ebsp: direct output: %w", err)
		}
	}
	s.direct = s.direct[:0]
	return nil
}
