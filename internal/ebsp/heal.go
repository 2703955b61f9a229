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

// isFailover reports whether err indicates a failed shard primary — the
// trigger for heal-and-rerun recovery.
func isFailover(err error) bool {
	return errors.Is(err, kvstore.ErrShardFailed)
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
// replayed under a fixed seed sleeps the exact same jittered intervals.
func retryJitter(seed int64, job string, step, part, attempt int) float64 {
	h := fnv.New64a()
	h.Write([]byte(job))
	var buf [32]byte
	binary.BigEndian.PutUint64(buf[0:], uint64(seed))
	binary.BigEndian.PutUint64(buf[8:], uint64(int64(step)))
	binary.BigEndian.PutUint64(buf[16:], uint64(int64(part)))
	binary.BigEndian.PutUint64(buf[24:], uint64(int64(attempt)))
	h.Write(buf[:])
	x := codec.Mix64(h.Sum64())
	return float64(x>>11) / float64(1<<53)
}

// backoffFor is retryBackoff's curve stretched by a seeded per-(job, step,
// part, attempt) factor in [0.5, 1.5): concurrent part retries decorrelate
// instead of hammering a recovering shard in lockstep, while a fixed seed
// keeps the whole schedule reproducible.
func (e *Engine) backoffFor(job string, step, part, attempt int) time.Duration {
	base := retryBackoff(attempt)
	return time.Duration(float64(base) * (0.5 + retryJitter(e.jitterSeed, job, step, part, attempt)))
}

// retryOp runs f, retrying transient failures up to e.retries times with
// retryBackoff between attempts. A still-transient error after the last
// attempt is de-tagged (the transient marker is stripped) so an outer,
// non-idempotent boundary never retries an operation whose effects are
// unknown. The (job, step, part) coordinates attribute the faults and retries
// to the profiler record they delayed (step/part -1 for operations outside
// any part-step: loaders, exporters, checkpoints).
func (e *Engine) retryOp(job string, step, part int, f func() error) error {
	err := f()
	if err != nil && isTransient(err) {
		e.prof.AddFault(job, step, part)
	}
	for attempt := 1; err != nil && isTransient(err) && attempt <= e.retries; attempt++ {
		backoff := e.backoffFor(job, step, part, attempt)
		e.metrics.AddRetries(1)
		e.tracer.Record(trace.KindRetry, job, step, part, int64(attempt), backoff)
		e.prof.AddRetry(job, step, part)
		if e.logger != nil {
			e.logger.Debug("transient fault, retrying operation",
				"job", job, "step", step, "part", part, "attempt", attempt, "err", err.Error())
		}
		time.Sleep(backoff)
		err = f()
		if err != nil && isTransient(err) {
			e.prof.AddFault(job, step, part)
		}
	}
	if err != nil && isTransient(err) {
		if e.logger != nil {
			e.logger.Warn("retries exhausted",
				"job", job, "step", step, "part", part, "attempts", e.retries+1, "err", err.Error())
		}
		return fmt.Errorf("ebsp: retries exhausted after %d attempts: %v", e.retries+1, err)
	}
	return err
}

// autoRecoverable reports whether a sync-run failure should trigger
// heal-and-rerun: a shard failover with checkpoints to recover from, within
// the rerun budget.
func (run *jobRun) autoRecoverable(err error, reruns int) bool {
	return isFailover(err) && run.engine.checkpointEvery > 0 && reruns < run.engine.retries
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
		if err := h.Heal(run.placement.Name()); err != nil {
			return nil, fmt.Errorf("ebsp: heal %q after %v: %w", run.placement.Name(), cause, err)
		}
		if run.refTable != nil {
			if err := h.Heal(run.refTable.Name()); err != nil {
				return nil, fmt.Errorf("ebsp: heal %q after %v: %w", run.refTable.Name(), cause, err)
			}
		}
	}
	if run.sensor != nil {
		// Absorb the failovers the recovery itself observed.
		run.sensedFailovers = run.sensor.Failovers()
	}
	meta, err := e.loadCheckpoint(run.job)
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
	e.metrics.AddStepsRerun(rerun)
	// Tail policy: failover recovery always records, with the run's trace
	// context attached when sampled, so post-hoc lineage shows the rerun.
	e.tracer.RecordSpan(trace.Span{
		Kind: trace.KindFailoverRecovery, Job: run.job.Name, Step: meta.Step, Part: -1,
		N: rerun, Dur: time.Since(start), Trace: run.traceID, Parent: run.rootSpan,
	})
	run.log.Warn("shard failover: healed and re-running from checkpoint",
		"cause", cause.Error(), "checkpoint_step", meta.Step, "steps_rerun", rerun,
		"recovery_dur", time.Since(start))
	return run.syncLoop(meta.Step, meta.Pending)
}
