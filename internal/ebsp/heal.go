package ebsp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"ripple/internal/codec"
	"ripple/internal/kvstore"
	"ripple/internal/mq"
	"ripple/internal/trace"
)

// Self-healing execution: the engine classifies store/mq errors as retryable
// (transient — the operation had no effect) vs fatal, retries retryable
// operations with bounded deterministic backoff, and — when a store failover
// is detected mid-job — heals replication and re-runs from the last
// checkpoint inside Run, internalizing what used to require a manual Resume.

// isTransient reports whether err is a retryable transient failure: the
// failed operation did not take effect.
func isTransient(err error) bool {
	return errors.Is(err, kvstore.ErrTransient) || errors.Is(err, mq.ErrTransient)
}

// retryBackoff is the deterministic bounded backoff curve before retry
// `attempt` (1-based): 200µs, 400µs, 800µs, ... capped at 5ms.
func retryBackoff(attempt int) time.Duration {
	d := 100 * time.Microsecond << attempt
	if d > 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	return d
}

// retryJitter maps the retry coordinates to a deterministic fraction in
// [0,1): fnv64a over the coordinates, then the splitmix64 finalizer for
// avalanche — the same recipe the chaos injector uses, so a fault trace
// replayed under a fixed seed sleeps the exact same jittered intervals. The
// first eight bytes hashed are a zero seed, kept so schedules stay
// bit-identical to those of earlier builds.
func retryJitter(job string, step, part, attempt int) float64 {
	h := fnv.New64a()
	h.Write([]byte(job))
	var buf [32]byte
	binary.BigEndian.PutUint64(buf[8:], uint64(int64(step)))
	binary.BigEndian.PutUint64(buf[16:], uint64(int64(part)))
	binary.BigEndian.PutUint64(buf[24:], uint64(int64(attempt)))
	h.Write(buf[:])
	x := codec.Mix64(h.Sum64())
	return float64(x>>11) / float64(1<<53)
}

// backoffFor is retryBackoff's curve stretched by a per-(job, step, part,
// attempt) factor in [0.5, 1.5): concurrent part retries decorrelate
// instead of hammering a recovering shard in lockstep, while the whole
// schedule stays reproducible.
func backoffFor(job string, step, part, attempt int) time.Duration {
	base := retryBackoff(attempt)
	return time.Duration(float64(base) * (0.5 + retryJitter(job, step, part, attempt)))
}

// retry runs op, retrying transient failures up to the engine's retry
// budget with backoffFor between attempts. A still-transient error after
// the last attempt is de-tagged (the transient marker is stripped) so an
// outer, non-idempotent boundary never retries an operation whose effects
// are unknown. (step, part) name the execution the operation delays; step
// or part -1 marks a job-level operation (loaders, exporters, checkpoints).
// The first attempt costs one call and one nil check.
func (run *jobRun) retry(step, part int, op func() error) error {
	err := op()
	for attempt := 1; err != nil && isTransient(err); attempt++ {
		backoff := backoffFor(run.job.Name, step, part, attempt)
		run.recordRecovery(trace.KindRetry, step, part, int64(attempt), backoff, err)
		if attempt > run.engine.retries {
			return fmt.Errorf("ebsp: retries exhausted after %d attempts: %v", attempt, err)
		}
		time.Sleep(backoff)
		err = op()
	}
	return err
}

// recordRecovery books one event of the recovery ladder (DESIGN §7), named
// by its span kind: a retry (KindRetry; an attempt past the retry budget is
// the exhausted one and records no retry), a fast-recovery part replay
// (KindPartReplay), a failover rerun (KindFailoverRecovery) or a resume
// (KindResume). n is the span's N: the attempt, the replay, the steps
// re-run or the checkpoint step. The event's counter, span, profiler
// attribution and log line are emitted here and nowhere else. Spans record
// whether or not the run is head-sampled (the tail policy) and carry the
// run's trace context when it is; their parent is the delayed (step, part)
// execution, or the job root for job-level events.
func (run *jobRun) recordRecovery(kind trace.Kind, step, part int, n int64, dur time.Duration, cause error) {
	e, job := run.engine, run.job.Name
	parent := run.rootSpan
	if step >= 0 && part >= 0 {
		parent = run.spanID(step, part)
	}
	switch kind {
	case trace.KindRetry:
		e.prof.AddFault(job, step, part)
		if n > int64(e.retries) {
			run.log.Warn("retries exhausted",
				"step", step, "part", part, "attempts", n, "err", cause.Error())
			return
		}
		e.metrics.AddRetries(1)
		e.prof.AddRetry(job, step, part)
		run.log.Debug("transient fault, retrying operation",
			"step", step, "part", part, "attempt", n, "err", cause.Error())
	case trace.KindPartReplay:
		run.recoveries.Add(1)
		e.metrics.AddRecoveries(1)
		e.prof.AddFault(job, step, part)
		e.prof.AddRetry(job, step, part)
		run.log.Warn("shard failed, replaying part step", "step", step, "part", part, "attempt", n)
	case trace.KindFailoverRecovery:
		e.metrics.AddStepsRerun(n)
		run.log.Warn("shard failover: healed and re-running from checkpoint",
			"cause", cause.Error(), "checkpoint_step", step, "steps_rerun", n, "recovery_dur", dur)
	case trace.KindResume:
		run.log.Info("resuming from checkpoint", "checkpoint_step", step)
	}
	e.tracer.RecordSpan(trace.Span{Kind: kind, Job: job, Step: step, Part: part, N: n, Dur: dur,
		Trace: run.traceID, Parent: parent})
}

// checkFailover samples the store's failover sensor after a completed step.
// For a non-transactional job with checkpoints, a bump means the step's
// writes may have died with the primary, so it escalates to heal-and-rerun
// (wrapping kvstore.ErrShardFailed); transactional fast-recovery jobs replay
// failed part-steps themselves and just keep going.
func (run *jobRun) checkFailover(step int) error {
	if run.sensor == nil {
		return nil
	}
	now := run.sensor.Failovers()
	if now == run.sensedFailovers {
		return nil
	}
	delta := now - run.sensedFailovers
	run.sensedFailovers = now
	if run.strategy.FastRecovery || run.engine.checkpointEvery == 0 {
		return nil
	}
	return fmt.Errorf("ebsp: job %q: %d failover(s) detected after step %d: %w",
		run.job.Name, delta, step, kvstore.ErrShardFailed)
}

// recoverAndRerun heals replication under the job's tables, restores the
// last checkpoint, and re-runs the sync loop from it. The caller (RunContext)
// bounds how often this is attempted.
func (run *jobRun) recoverAndRerun(cause error) (*Result, error) {
	e := run.engine
	start := time.Now()
	if h, ok := e.store.(kvstore.Healer); ok {
		for _, t := range []kvstore.Table{run.placement, run.refTable} {
			if t == nil {
				continue
			}
			if err := h.Heal(t.Name()); err != nil {
				return nil, fmt.Errorf("ebsp: heal %q after %v: %w", t.Name(), cause, err)
			}
		}
	}
	if run.sensor != nil {
		// Absorb the failovers the recovery itself observed.
		run.sensedFailovers = run.sensor.Failovers()
	}
	meta, err := run.loadCheckpoint()
	if err != nil {
		return nil, fmt.Errorf("ebsp: auto-recovery after %v: %w", cause, err)
	}
	if err := run.restoreCheckpoint(meta); err != nil {
		return nil, fmt.Errorf("ebsp: auto-recovery after %v: %w", cause, err)
	}
	rerun := int64(run.lastStep - meta.Step)
	if rerun < 0 {
		rerun = 0
	}
	run.recordRecovery(trace.KindFailoverRecovery, meta.Step, -1, rerun, time.Since(start), cause)
	return run.syncLoop(meta.Step, meta.Pending)
}
