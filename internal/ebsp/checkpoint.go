package ebsp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"ripple/internal/codec"
	"ripple/internal/kvstore"
)

// Checkpointing extends the paper's fault-tolerance outline (§IV-A) from
// replay of deterministic jobs to restartability of arbitrary synchronized
// jobs: at configurable barrier intervals the engine snapshots everything a
// barrier defines — the state tables, the undelivered spills, the aggregate
// results, and the step number — into checkpoint tables in the same store.
// A later Resume with an equivalent job specification restores the snapshot
// and continues from the step after the checkpoint.
//
// Checkpoints survive engine crashes because they live in the store; on a
// durable store (diskstore) they survive process restarts too.

// ErrNoCheckpoint is returned by Resume when no checkpoint exists for the
// job.
var ErrNoCheckpoint = errors.New("ebsp: no checkpoint for job")

// ErrCheckpointMismatch is returned by Resume (and automatic recovery) when
// the checkpoint does not match the job specification — name, step budget,
// or state table set. It wraps ErrBadJob, so existing errors.Is(err,
// ErrBadJob) checks keep matching.
var ErrCheckpointMismatch = fmt.Errorf("%w: checkpoint does not match the job specification", ErrBadJob)

// WithCheckpoints makes synchronized jobs snapshot their barrier state every
// `every` steps. 0 disables checkpointing (the default). No-sync jobs have
// no barriers and ignore the option.
func WithCheckpoints(every int) Option {
	return func(e *Engine) {
		if every >= 0 {
			e.checkpointEvery = every
		}
	}
}

// checkpointMeta is the snapshot's root record. JobName, MaxSteps, and
// TableHash identify the job specification that wrote the snapshot; Resume
// rejects a mismatching job with ErrCheckpointMismatch. (JobName doubles as
// the format marker: a legacy record decodes with JobName "" and skips the
// identity checks.)
type checkpointMeta struct {
	Step       int
	Pending    int64
	Aggregates map[string]any
	Tables     []string
	JobName    string
	MaxSteps   int
	TableHash  uint64
}

// tableSetHash fingerprints the job's state table set (order included).
func tableSetHash(names []string) uint64 {
	h := fnv.New64a()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func init() {
	codec.Register(checkpointMeta{})
}

// sealMeta encodes the meta record and appends a fnv64a checksum of the
// encoded bytes. The sealed form is what checkpoint() stores: a torn or
// partial write (a primary dying mid-checkpoint, a truncated value from a
// flaky transport) fails the checksum and is rejected before any decoding
// touches the garbage.
func sealMeta(meta checkpointMeta) ([]byte, error) {
	enc, err := codec.Encode(meta)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	h.Write(enc)
	return h.Sum(enc), nil
}

// openMeta verifies the checksum trailer and decodes the meta record,
// returning ErrCheckpointMismatch when the bytes do not hash to their
// trailer.
func openMeta(sealed []byte) (checkpointMeta, error) {
	if len(sealed) < 8 {
		return checkpointMeta{}, fmt.Errorf("%w: checkpoint meta truncated to %d bytes",
			ErrCheckpointMismatch, len(sealed))
	}
	body, sum := sealed[:len(sealed)-8], sealed[len(sealed)-8:]
	h := fnv.New64a()
	h.Write(body)
	if !bytes.Equal(h.Sum(nil), sum) {
		return checkpointMeta{}, fmt.Errorf("%w: checkpoint meta checksum mismatch (torn write?)",
			ErrCheckpointMismatch)
	}
	raw, err := codec.Decode(body)
	if err != nil {
		return checkpointMeta{}, fmt.Errorf("%w: checkpoint meta undecodable: %v", ErrCheckpointMismatch, err)
	}
	meta, ok := raw.(checkpointMeta)
	if !ok {
		return checkpointMeta{}, fmt.Errorf("%w: checkpoint meta is a %T", ErrCheckpointMismatch, raw)
	}
	return meta, nil
}

// checkpointPrefix names a job's checkpoint tables; stable across runs so
// Resume can find them.
func checkpointPrefix(jobName string) string {
	return fmt.Sprintf("__ckpt.%s", jobName)
}

func ckptMetaTable(jobName string) string  { return checkpointPrefix(jobName) + ".meta" }
func ckptSpillTable(jobName string) string { return checkpointPrefix(jobName) + ".spills" }
func ckptStateTable(jobName string, tab int) string {
	return fmt.Sprintf("%s.state.%d", checkpointPrefix(jobName), tab)
}

// checkpoint snapshots the barrier state after step `step`.
func (run *jobRun) checkpoint(step int, pending int64) error {
	store := run.engine.store
	jobName := run.job.Name

	// State tables.
	for i, t := range run.stateTables {
		ckpt, err := recreateTable(store, ckptStateTable(jobName, i), run.placement.Name())
		if err != nil {
			return err
		}
		if err := run.copyTable(t, ckpt); err != nil {
			return fmt.Errorf("ebsp: checkpoint state table %q: %w", t.Name(), err)
		}
	}

	// Undelivered spills (the messages crossing the checkpointed barrier).
	ckptSpills, err := recreateTable(store, ckptSpillTable(jobName), run.placement.Name())
	if err != nil {
		return err
	}
	if err := run.copyTable(run.transport, ckptSpills); err != nil {
		return fmt.Errorf("ebsp: checkpoint spills: %w", err)
	}

	// Meta record last, so a complete meta implies a complete snapshot. On a
	// buffered store the state and spill writes must reach the medium before
	// the meta does, or a process kill could leave a meta that promises
	// missing data — hence the flush on either side of the meta write.
	if err := kvstore.Flush(store); err != nil {
		return fmt.Errorf("ebsp: flush checkpoint state: %w", err)
	}
	meta, err := recreateTable(store, ckptMetaTable(jobName), run.placement.Name())
	if err != nil {
		return err
	}
	aggs := make(map[string]any, len(run.aggPrev))
	for k, v := range run.aggPrev {
		aggs[k] = v
	}
	sealed, err := sealMeta(checkpointMeta{
		Step:       step,
		Pending:    pending,
		Aggregates: aggs,
		Tables:     run.job.StateTables,
		JobName:    jobName,
		MaxSteps:   run.job.MaxSteps,
		TableHash:  tableSetHash(run.job.StateTables),
	})
	if err != nil {
		return fmt.Errorf("ebsp: seal checkpoint meta: %w", err)
	}
	if err := run.retry(-1, -1, func() error {
		return meta.Put("meta", sealed)
	}); err != nil {
		return err
	}
	return kvstore.Flush(store)
}

// dropCheckpoint removes a job's checkpoint tables (after successful
// completion).
func (run *jobRun) dropCheckpoint() {
	store := run.engine.store
	jobName := run.job.Name
	_ = store.DropTable(ckptMetaTable(jobName))
	_ = store.DropTable(ckptSpillTable(jobName))
	for i := range run.stateTables {
		_ = store.DropTable(ckptStateTable(jobName, i))
	}
}

// loadCheckpoint reads the job's checkpoint meta record and validates that
// the snapshot matches the job specification (name, step budget, state table
// set), returning ErrCheckpointMismatch (which wraps ErrBadJob) otherwise.
func (run *jobRun) loadCheckpoint() (checkpointMeta, error) {
	job := run.job
	metaTab, ok := run.engine.store.LookupTable(ckptMetaTable(job.Name))
	if !ok {
		return checkpointMeta{}, fmt.Errorf("%w: %q", ErrNoCheckpoint, job.Name)
	}
	var rawMeta any
	var found bool
	err := run.retry(-1, -1, func() error {
		var gerr error
		rawMeta, found, gerr = metaTab.Get("meta")
		return gerr
	})
	if err != nil {
		return checkpointMeta{}, err
	}
	if !found {
		return checkpointMeta{}, fmt.Errorf("%w: %q (incomplete snapshot)", ErrNoCheckpoint, job.Name)
	}
	var meta checkpointMeta
	switch rec := rawMeta.(type) {
	case []byte:
		meta, err = openMeta(rec)
		if err != nil {
			return checkpointMeta{}, err
		}
	case checkpointMeta:
		// Legacy record written before the checksum seal; accepted as-is.
		meta = rec
	default:
		return checkpointMeta{}, fmt.Errorf("%w: checkpoint meta is a %T", ErrCheckpointMismatch, rawMeta)
	}
	if len(meta.Tables) != len(job.StateTables) {
		return checkpointMeta{}, fmt.Errorf("%w: checkpoint has %d state tables, job has %d",
			ErrCheckpointMismatch, len(meta.Tables), len(job.StateTables))
	}
	for i, name := range meta.Tables {
		if job.StateTables[i] != name {
			return checkpointMeta{}, fmt.Errorf("%w: checkpoint state table %d is %q, job has %q",
				ErrCheckpointMismatch, i, name, job.StateTables[i])
		}
	}
	if meta.JobName != "" { // legacy records predate the identity fields
		if meta.JobName != job.Name {
			return checkpointMeta{}, fmt.Errorf("%w: checkpoint belongs to job %q, not %q",
				ErrCheckpointMismatch, meta.JobName, job.Name)
		}
		if meta.MaxSteps != job.MaxSteps {
			return checkpointMeta{}, fmt.Errorf("%w: checkpoint was taken with MaxSteps %d, job has %d",
				ErrCheckpointMismatch, meta.MaxSteps, job.MaxSteps)
		}
		if meta.TableHash != tableSetHash(job.StateTables) {
			return checkpointMeta{}, fmt.Errorf("%w: state table set hash differs", ErrCheckpointMismatch)
		}
	}
	return meta, nil
}

// restoreCheckpoint resets the run's state tables, transport, and aggregates
// to the snapshot. The transport is cleared first so an in-run recovery
// discards the failed attempt's spills; on a fresh run (Resume) the clear is
// a no-op.
func (run *jobRun) restoreCheckpoint(meta checkpointMeta) error {
	e := run.engine
	jobName := run.job.Name
	for i, t := range run.stateTables {
		ckpt, ok := e.store.LookupTable(ckptStateTable(jobName, i))
		if !ok {
			return fmt.Errorf("%w: missing state snapshot %d", ErrNoCheckpoint, i)
		}
		if err := run.clearTable(t); err != nil {
			return err
		}
		if err := run.copyTable(ckpt, t); err != nil {
			return fmt.Errorf("ebsp: restore state table %q: %w", t.Name(), err)
		}
	}
	ckptSpills, ok := e.store.LookupTable(ckptSpillTable(jobName))
	if !ok {
		return fmt.Errorf("%w: missing spill snapshot", ErrNoCheckpoint)
	}
	if err := run.clearTable(run.transport); err != nil {
		return err
	}
	if err := run.copyTable(ckptSpills, run.transport); err != nil {
		return fmt.Errorf("ebsp: restore spills: %w", err)
	}
	run.aggPrev = make(map[string]any, len(meta.Aggregates))
	for k, v := range meta.Aggregates {
		run.aggPrev[k] = v
	}
	if run.aggResults != nil {
		for name, v := range run.aggPrev {
			if err := run.retry(-1, -1, func() error { return run.aggResults.Put(name, v) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// Resume restarts a synchronized job from its most recent checkpoint: the
// state tables and undelivered messages are restored to the snapshot and
// execution continues from the following step. The job specification must be
// equivalent to the one originally run (same name, step budget, state
// tables, compute); a mismatch is rejected with ErrCheckpointMismatch.
// If an execution of the same job name is already in flight on this engine
// (a restart-recovery path racing a live run), Resume returns ErrJobBusy
// instead of restoring a snapshot underneath it.
func (e *Engine) Resume(job *Job) (*Result, error) {
	return e.ResumeContext(context.Background(), job)
}

// ResumeContext is Resume with cancellation, mirroring RunContext: the
// resumed job stops at the next barrier once ctx is done, and the context
// error is returned (wrapped).
func (e *Engine) ResumeContext(ctx context.Context, job *Job) (*Result, error) {
	return e.execute(ctx, job, true)
}

// recreateTable drops and recreates a table consistently partitioned with
// the placement table.
func recreateTable(store kvstore.Store, name, consistentWith string) (kvstore.Table, error) {
	if _, ok := store.LookupTable(name); ok {
		if err := store.DropTable(name); err != nil {
			return nil, err
		}
	}
	t, err := store.CreateTable(name, kvstore.ConsistentWith(consistentWith))
	if err != nil {
		return nil, fmt.Errorf("ebsp: create checkpoint table %q: %w", name, err)
	}
	return t, nil
}

// copyTable copies every pair from src to dst, retrying each put's
// transient failures.
func (run *jobRun) copyTable(src, dst kvstore.Table) error {
	return kvstore.EnumerateAll(src, func(k, v any) (bool, error) {
		return false, run.retry(-1, -1, func() error { return dst.Put(k, v) })
	})
}

// clearTable deletes every pair of a table, retrying each delete's
// transient failures.
func (run *jobRun) clearTable(t kvstore.Table) error {
	keys := make([]any, 0)
	if err := kvstore.EnumerateAll(t, func(k, _ any) (bool, error) {
		keys = append(keys, k)
		return false, nil
	}); err != nil {
		return err
	}
	sort.Slice(keys, func(i, j int) bool { return codec.CompareKeys(keys[i], keys[j]) < 0 })
	for _, k := range keys {
		if err := run.retry(-1, -1, func() error { return t.Delete(k) }); err != nil {
			return err
		}
	}
	return nil
}
