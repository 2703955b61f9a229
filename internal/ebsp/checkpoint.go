package ebsp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"

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
// identity checks.) Slot names the slot whose tables hold the snapshot; a
// record written before there were two slots decodes as slot 0, which keeps
// the one-slot table names.
type checkpointMeta struct {
	Step       int
	Pending    int64
	Aggregates map[string]any
	Tables     []string
	JobName    string
	MaxSteps   int
	TableHash  uint64
	Slot       int
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

// CheckpointTables names the tables that hold a job's checkpoints: the meta
// table, whose one record is the commit point, and the two slots checkpoints
// alternate between. Each slot lists its spill snapshot, then one snapshot per
// state table in the job's order. The meta table and every snapshot are
// partitioned consistently with the job's placement table, except that the
// snapshot of a ubiquitous state table is ubiquitous. A store that loses its
// catalogue across a restart (diskstore) reopens these tables, with those
// options, before a Resume. The engine is the only other code that knows the
// names.
func CheckpointTables(job string, stateTables int) (meta string, slots [2][]string) {
	for s, prefix := range []string{"__ckpt." + job, "__ckpt." + job + ".s1"} {
		slots[s] = append(slots[s], prefix+".spills")
		for i := 0; i < stateTables; i++ {
			slots[s] = append(slots[s], fmt.Sprintf("%s.state.%d", prefix, i))
		}
	}
	return ckptMetaTable(job), slots
}

func ckptMetaTable(job string) string { return "__ckpt." + job + ".meta" }

// liveTables are what a checkpoint snapshots, in slot order: the spill
// transport (the messages crossing the barrier), then the state tables.
func (run *jobRun) liveTables() []kvstore.Table {
	return append([]kvstore.Table{run.transport}, run.stateTables...)
}

// openCheckpoint opens what the run's checkpoints write: the meta table,
// which no live job drops, and the free slot — the one the committed record
// does not name. A fresh run first removes, durably, the record an earlier
// run of the same name may have left, so it never writes into a slot that
// record names; both its slots are then free. Opening both here, before the
// first checkpoint, leaves every later checkpoint free of DDL.
func (run *jobRun) openCheckpoint(fresh bool) error {
	store := run.engine.store
	var err error
	if run.ckptMeta, err = kvstore.OpenOrCreate(store, ckptMetaTable(run.job.Name), kvstore.ConsistentWith(run.placement.Name())); err != nil {
		return err
	}
	if fresh {
		var found bool
		err = run.retry(-1, -1, func() (err error) {
			_, found, err = run.ckptMeta.Get("meta")
			return err
		})
		if err == nil && found {
			if err = run.retry(-1, -1, func() error { return run.ckptMeta.Delete("meta") }); err == nil {
				err = kvstore.Flush(store)
			}
		}
		if err == nil {
			err = run.openSlot(1-run.ckptNext, true)
		}
	}
	if err != nil {
		return err
	}
	return run.openSlot(run.ckptNext, true)
}

// openSlot opens a slot's snapshot tables, each placed like the live table it
// snapshots. The committed slot's must exist. A free slot's are made where
// missing, and remade where an earlier run of another shape placed them
// otherwise.
func (run *jobRun) openSlot(slot int, free bool) error {
	if run.ckptSlots[slot] != nil {
		return nil
	}
	store := run.engine.store
	_, names := CheckpointTables(run.job.Name, len(run.stateTables))
	var tabs []kvstore.Table
	for i, live := range run.liveTables() {
		name, opt := names[slot][i], kvstore.ConsistentWith(run.placement.Name())
		if live.Ubiquitous() {
			opt = kvstore.Ubiquitous()
		}
		t, ok := store.LookupTable(name)
		switch {
		case !ok && !free:
			return fmt.Errorf("%w: missing snapshot %q", ErrNoCheckpoint, name)
		case ok && free && t.Parts() != live.Parts():
			if err := store.DropTable(name); err != nil {
				return err
			}
			fallthrough
		case !ok:
			var err error
			if t, err = kvstore.OpenOrCreate(store, name, opt); err != nil {
				return err
			}
		}
		tabs = append(tabs, t)
	}
	run.ckptSlots[slot] = tabs
	return nil
}

// checkpoint snapshots the barrier state after step `step` into the free
// slot and commits it: flush the snapshot, Put the sealed record naming
// (slot, step), flush again. The Put is the commit point. Until it lands the
// committed record and its slot stand untouched, so a death anywhere before
// it leaves the previous checkpoint whole.
func (run *jobRun) checkpoint(step int, pending int64) error {
	store := run.engine.store
	slot := run.ckptNext
	if err := run.mirror(run.liveTables(), run.ckptSlots[slot]); err != nil {
		return fmt.Errorf("ebsp: checkpoint: %w", err)
	}
	if err := kvstore.Flush(store); err != nil {
		return fmt.Errorf("ebsp: flush checkpoint state: %w", err)
	}
	sealed, err := sealMeta(checkpointMeta{
		Step:       step,
		Pending:    pending,
		Aggregates: maps.Clone(run.aggPrev),
		Tables:     run.job.StateTables,
		JobName:    run.job.Name,
		MaxSteps:   run.job.MaxSteps,
		TableHash:  tableSetHash(run.job.StateTables),
		Slot:       slot,
	})
	if err != nil {
		return fmt.Errorf("ebsp: seal checkpoint meta: %w", err)
	}
	if err := run.retry(-1, -1, func() error { return run.ckptMeta.Put("meta", sealed) }); err != nil {
		return err
	}
	run.ckptNext = 1 - slot
	return kvstore.Flush(store)
}

// dropCheckpoint removes a job's checkpoint tables after it completes, the
// meta table first. It flushes the final state before: a buffered store that
// died with it unflushed still has the checkpoint to resume from.
func (run *jobRun) dropCheckpoint() error {
	store := run.engine.store
	if err := kvstore.Flush(store); err != nil {
		return fmt.Errorf("ebsp: flush final state: %w", err)
	}
	meta, slots := CheckpointTables(run.job.Name, len(run.stateTables))
	for _, name := range slices.Concat([]string{meta}, slots[0], slots[1]) {
		_ = store.DropTable(name)
	}
	return nil
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
	err := run.retry(-1, -1, func() (err error) {
		rawMeta, found, err = metaTab.Get("meta")
		return err
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
	if meta.Slot != 0 && meta.Slot != 1 {
		return checkpointMeta{}, fmt.Errorf("%w: checkpoint names slot %d", ErrCheckpointMismatch, meta.Slot)
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
// to the snapshot in the committed slot. Restoring replaces whatever the
// live tables hold, so an in-run recovery discards the failed attempt's
// writes and spills.
func (run *jobRun) restoreCheckpoint(meta checkpointMeta) error {
	if err := run.openSlot(meta.Slot, false); err != nil {
		return err
	}
	if err := run.mirror(run.ckptSlots[meta.Slot], run.liveTables()); err != nil {
		return fmt.Errorf("ebsp: restore checkpoint: %w", err)
	}
	run.ckptNext = 1 - meta.Slot
	if err := run.openCheckpoint(false); err != nil {
		return err
	}
	run.aggPrev = make(map[string]any, len(meta.Aggregates))
	maps.Copy(run.aggPrev, meta.Aggregates)
	return run.publishAggregates(-1)
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

// mirror makes each dst table hold exactly the pairs of the src table at the
// same index: one agent per part of the placement table, all parts at once,
// each retried whole. An agent deletes the destination keys its source part
// lacks and puts a deep copy of every source pair, since part views may hand
// out the stored value itself. A ubiquitous table, which every part sees, is
// copied by part 0's agent alone. Checkpoint mirrors the live tables into a
// slot; restore mirrors the slot back.
func (run *jobRun) mirror(src, dst []kvstore.Table) error {
	_, err := fanOut(run.parts, func(p int) (any, error) {
		return nil, run.retry(-1, -1, func() error {
			_, err := run.engine.store.RunAgent(run.placement.Name(), p, func(sv kvstore.ShardView) (any, error) {
				for i := range src {
					if p > 0 && src[i].Ubiquitous() {
						continue
					}
					if err := mirrorPart(sv, src[i].Name(), dst[i].Name()); err != nil {
						return nil, err
					}
				}
				return nil, nil
			})
			return err
		})
	})
	return err
}

// mirrorPart makes the agent's part of table dst hold exactly the pairs of
// its part of table src, walking both in key order.
func mirrorPart(sv kvstore.ShardView, src, dst string) error {
	from, err := sv.View(src)
	if err != nil {
		return err
	}
	to, err := sv.View(dst)
	if err != nil {
		return err
	}
	var keys, vals []any
	if err := from.EnumerateOrdered(func(k, v any) (bool, error) {
		c, err := codec.DeepCopy(v)
		keys, vals = append(keys, k), append(vals, c)
		return false, err
	}); err != nil {
		return err
	}
	var stale []any
	i := 0
	if err := to.EnumerateOrdered(func(k, _ any) (bool, error) {
		for i < len(keys) && codec.CompareKeys(keys[i], k) < 0 {
			i++
		}
		if i == len(keys) || codec.CompareKeys(keys[i], k) != 0 {
			stale = append(stale, k)
		}
		return false, nil
	}); err != nil {
		return err
	}
	for _, k := range stale {
		if err := to.Delete(k); err != nil {
			return err
		}
	}
	for j, k := range keys {
		if err := to.Put(k, vals[j]); err != nil {
			return err
		}
	}
	return nil
}
