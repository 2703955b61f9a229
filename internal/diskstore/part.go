package diskstore

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ripple/internal/codec"
	"ripple/internal/kvstore"
	"ripple/internal/kvstore/tablecore"
	"ripple/internal/trace"
)

// shard is diskstore's tablecore.Part: one part of a partition group, holding
// the LSM table-part of every table of the group at that part index. Table
// operations and agents reach it on the caller's goroutine.
type shard struct {
	store   *Store
	part    int
	memCap  int64 // each table-part's share of its table's memtable budget
	stopped atomic.Bool

	mu   sync.Mutex
	logs map[string]*partLog // table name -> part state
}

var _ tablecore.Part = (*shard)(nil)

func (s *Store) newShard(part, parts int) tablecore.Part {
	memCap := s.memBudget / int64(parts)
	if memCap < minMemtable {
		memCap = minMemtable
	}
	return &shard{store: s, part: part, memCap: memCap, logs: make(map[string]*partLog)}
}

// Create implements tablecore.Part: the table-part is opened, or replayed
// from what a previous run left of it, and is its own local view.
func (sh *shard) Create(table string) (kvstore.PartView, error) {
	pl, err := sh.open(table)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	sh.logs[table] = pl
	sh.mu.Unlock()
	return pl, nil
}

// Release implements tablecore.Part: the table-part's files are closed and
// kept.
func (sh *shard) Release(table string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if pl := sh.logs[table]; pl != nil {
		_ = pl.closeLocked()
		delete(sh.logs, table)
	}
}

// Drop implements tablecore.Part: the table-part's WAL, manifest, and run
// files are removed.
func (sh *shard) Drop(table string) {
	sh.Release(table)
	s := sh.store
	_ = os.Remove(s.logPath(table, sh.part))
	_ = os.Remove(s.manifestPath(table, sh.part))
	s.removeOrphans(table, sh.part, nil)
}

// Client implements tablecore.Part.
func (sh *shard) Client(op func()) error { return sh.Run(op) }

// Run implements tablecore.Part: the body runs on the caller's goroutine.
func (sh *shard) Run(body func()) error {
	if sh.stopped.Load() {
		return kvstore.ErrClosed
	}
	body()
	return nil
}

// Stop implements tablecore.Part: every memtable is flushed to a run, so the
// next open replays nothing, and all files are closed. Store.Close stops the
// compactor and the group-commit loop before any part.
func (sh *shard) Stop() error {
	sh.stopped.Store(true)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var firstErr error
	for name, pl := range sh.logs {
		if err := pl.flushLocked(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			// Fall back to making the WAL durable as-is.
			_ = pl.wal.sync()
		}
		if err := pl.closeLocked(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(sh.logs, name)
	}
	return firstErr
}

// partLog is one table-part of the LSM tree — the WAL + memtable head and the
// immutable runs below it — and the local view of it (kvstore.PartView) that
// agents and table operations use. Fields are guarded by the owning shard's
// mutex except where noted.
type partLog struct {
	store  *Store
	sh     *shard
	table  string
	part   int
	memCap int64

	wal     *wal // nil once closed: dropped, released, or stopped
	mem     *memtable
	runs    []*sstable // newest first
	nextSeq uint64

	unsynced atomic.Int64 // durable-write cadence counter (WithSyncEvery > 1)
	mergeMu  sync.Mutex   // serializes merges on this part (not sh.mu)
}

var _ kvstore.PartView = (*partLog)(nil)

// open loads one table-part: runs named by the manifest, crash orphans
// removed, and the WAL tail replayed into a fresh memtable. The partLog is
// not yet published, so no locking is needed; it joins the LSM gauges only
// once it is whole.
func (sh *shard) open(table string) (*partLog, error) {
	s, part := sh.store, sh.part
	pl := &partLog{
		store:   s,
		sh:      sh,
		table:   table,
		part:    part,
		memCap:  sh.memCap,
		mem:     newMemtable(),
		nextSeq: 1,
	}
	fail := func(err error) (*partLog, error) {
		for _, r := range pl.runs {
			_ = r.close()
		}
		if pl.wal != nil {
			_ = pl.wal.close()
		}
		return nil, err
	}
	m, ok, err := readManifest(s.manifestPath(table, part))
	if err != nil {
		return nil, err
	}
	live := make(map[uint64]bool, len(m.Runs))
	if ok {
		if m.NextSeq > pl.nextSeq {
			pl.nextSeq = m.NextSeq
		}
		for _, mr := range m.Runs {
			run, err := openSST(s.sstPath(table, part, mr.Seq), mr.Seq, mr.Level)
			if err != nil {
				// The manifest is only written after the run it names is
				// durable, so a missing or torn manifest-listed run is real
				// corruption, not a crash artifact.
				return fail(fmt.Errorf("diskstore: open run %s.%d seq %d: %w", table, part, mr.Seq, err))
			}
			pl.runs = append(pl.runs, run)
			live[mr.Seq] = true
			if mr.Seq >= pl.nextSeq {
				pl.nextSeq = mr.Seq + 1
			}
		}
	}
	s.removeOrphans(table, part, live)

	w, err := openWAL(s.logPath(table, part))
	if err != nil {
		return fail(err)
	}
	pl.wal = w
	if inj := s.injector; inj != nil {
		if clip := inj.TornTail(table, part); clip > 0 {
			if st, err := w.file.Stat(); err == nil && st.Size() > 0 {
				n := st.Size() - int64(clip)
				if n < 0 {
					n = 0
				}
				_ = w.file.Truncate(n)
			}
		}
	}
	start := time.Now()
	replayed, err := w.replay(func(op byte, kbuf, vbuf []byte) error {
		key, err := codec.Decode(kbuf)
		if err != nil {
			return fmt.Errorf("diskstore: replay %s: %w", s.logPath(table, part), err)
		}
		pl.mem.set(key, kbuf, vbuf, op == opDelete)
		return nil
	})
	if err != nil {
		return fail(err)
	}
	if replayed > 0 {
		s.tracer.Record(trace.KindLogReplay, table, 0, part, replayed, time.Since(start))
	}
	s.lsm().MemtableBytes().Add(pl.mem.bytes)
	for _, r := range pl.runs {
		s.lsm().RunCounts().Add(r.level, 1)
	}
	if pl.mem.bytes >= pl.memCap {
		if err := pl.flushLocked(); err != nil {
			_ = pl.closeLocked()
			return nil, err
		}
	}
	return pl, nil
}

// closeLocked closes the part's WAL and runs, keeping their files, and takes
// the part off the LSM gauges. Caller holds the shard lock.
func (pl *partLog) closeLocked() error {
	lsm := pl.store.lsm()
	lsm.MemtableBytes().Add(-pl.mem.bytes)
	for _, r := range pl.runs {
		_ = r.close()
		lsm.RunCounts().Add(r.level, -1)
	}
	pl.runs = nil
	err := pl.wal.close()
	pl.wal = nil
	return err
}

// errLocked says why a closed part is unusable — the store was closed, or the
// table dropped — and is nil for an open one. Caller holds the shard lock.
func (pl *partLog) errLocked() error {
	switch {
	case pl.wal != nil:
		return nil
	case pl.sh.stopped.Load():
		return kvstore.ErrClosed
	}
	return fmt.Errorf("%w: %q", kvstore.ErrNoTable, pl.table)
}

// applyLocked appends one record to the WAL and memtable, flushing the
// memtable to a run if it exceeds its budget. Caller holds the shard lock.
func (pl *partLog) applyLocked(op byte, key any, kbuf, vbuf []byte) error {
	if err := pl.wal.append(op, kbuf, vbuf); err != nil {
		return err
	}
	lsm := pl.store.lsm()
	lsm.AddWALBytes(walHdrLen + int64(len(kbuf)) + int64(len(vbuf)))
	lsm.AddLogicalBytes(int64(len(kbuf) + len(vbuf)))
	lsm.MemtableBytes().Add(pl.mem.set(key, kbuf, vbuf, op == opDelete))
	if pl.mem.bytes >= pl.memCap {
		return pl.flushLocked()
	}
	return nil
}

// getLocked resolves key: memtable first, then runs newest to oldest.
// Caller holds the shard lock and provides the encoded key.
func (pl *partLog) getLocked(key any, kbuf []byte) (any, bool, error) {
	if e, ok := pl.mem.get(key); ok {
		if e.tomb {
			return nil, false, nil
		}
		v, err := codec.Decode(e.vbuf)
		if err != nil {
			return nil, false, err
		}
		return v, true, nil
	}
	for _, run := range pl.runs {
		vbuf, tomb, found, err := run.get(key, kbuf, pl.store.lsm())
		if err != nil {
			return nil, false, err
		}
		if found {
			if tomb {
				return nil, false, nil
			}
			v, err := codec.Decode(vbuf)
			if err != nil {
				return nil, false, err
			}
			return v, true, nil
		}
	}
	return nil, false, nil
}

// liveKeysLocked resolves the set of live keys in this part: the memtable
// decides keys it holds (including tombstones), and runs contribute the
// rest newest-first. Caller holds the shard lock.
func (pl *partLog) liveKeysLocked() (map[any]bool, error) {
	live := make(map[any]bool, pl.mem.len())
	for k, e := range pl.mem.entries {
		live[k] = !e.tomb
	}
	for _, run := range pl.runs {
		err := run.scan(func(op byte, key any, _, _ []byte) error {
			if _, decided := live[key]; !decided {
				live[key] = op == opPut
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for k, ok := range live {
		if !ok {
			delete(live, k)
		}
	}
	return live, nil
}

// flushLocked writes the memtable out as a new level-0 run: SSTable first,
// then the manifest that names it, then the WAL is truncated — each step
// durable before the next, so a crash anywhere leaves either the old state
// (plus a replayable WAL) or the new one. Caller holds the shard lock.
func (pl *partLog) flushLocked() error {
	if pl.mem.len() == 0 {
		return nil
	}
	s := pl.store
	start := time.Now()
	if err := s.hook("flush:sst", pl.table, pl.part); err != nil {
		return err
	}
	seq := pl.nextSeq
	final := s.sstPath(pl.table, pl.part, seq)
	tmp := final + ".tmp"
	sw, err := newSSTWriter(tmp, pl.mem.len())
	if err != nil {
		return err
	}
	for _, e := range pl.mem.sorted() {
		op := byte(opPut)
		if e.tomb {
			op = opDelete
		}
		if err := sw.add(op, e.kbuf, e.vbuf); err != nil {
			_ = sw.f.Close()
			_ = os.Remove(tmp)
			return err
		}
	}
	if err := s.fsyncFault(pl.table, pl.part); err != nil {
		_ = sw.f.Close()
		_ = os.Remove(tmp)
		return err
	}
	size, err := sw.finish()
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	s.syncDir()
	run, err := openSST(final, seq, 0)
	if err != nil {
		_ = os.Remove(final)
		return err
	}
	if err := s.hook("flush:manifest", pl.table, pl.part); err != nil {
		_ = run.close()
		return err
	}
	newRuns := append([]*sstable{run}, pl.runs...)
	if err := s.writeManifestFor(pl, newRuns, seq+1); err != nil {
		_ = run.close()
		_ = os.Remove(final)
		return err
	}
	pl.runs = newRuns
	pl.nextSeq = seq + 1
	s.lsm().RunCounts().Add(0, 1)
	if err := s.hook("flush:wal-reset", pl.table, pl.part); err != nil {
		return err
	}
	if err := pl.wal.reset(); err != nil {
		return err
	}
	s.lsm().MemtableBytes().Add(-pl.mem.bytes)
	pl.mem = newMemtable()
	s.lsm().AddFlushes(1)
	s.lsm().AddFlushBytes(size)
	s.tracer.Record(trace.KindMemtableFlush, pl.table, 0, pl.part, size, time.Since(start))
	s.compactor.hint(pl)
	return nil
}

// syncWAL drains and fsyncs this part's WAL (the group-commit worker and
// Flush call it). Only the buffer drain runs under the shard lock; the
// fsync itself does not, so writers keep appending — and queueing for the
// next group commit — while this one is on the disk. That concurrency is
// what lets batches form at all.
func (pl *partLog) syncWAL() error {
	pl.sh.mu.Lock()
	if pl.wal == nil {
		pl.sh.mu.Unlock()
		return nil
	}
	err := pl.wal.w.Flush()
	f := pl.wal.file
	pl.sh.mu.Unlock()
	if err != nil {
		return err
	}
	if err := pl.store.fsyncFault(pl.table, pl.part); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		// A concurrent drop or close shuts the file out from under the
		// sync; durability of a part that is gone is moot.
		pl.sh.mu.Lock()
		closed := pl.wal == nil
		pl.sh.mu.Unlock()
		if closed {
			return nil
		}
		return err
	}
	pl.store.lsm().AddWALSyncs(1)
	return nil
}

// syncWALNaive is the WithoutGroupCommit path: append-then-fsync inline,
// holding the part lock for the whole disk sync — the textbook naive durable
// write every writer pays for individually. It exists so the group-commit
// benchmark has an honest baseline.
func (pl *partLog) syncWALNaive() error {
	pl.sh.mu.Lock()
	defer pl.sh.mu.Unlock()
	if pl.wal == nil {
		return nil
	}
	if err := pl.store.fsyncFault(pl.table, pl.part); err != nil {
		return err
	}
	if err := pl.wal.sync(); err != nil {
		return err
	}
	pl.store.lsm().AddWALSyncs(1)
	return nil
}

// Table implements kvstore.PartView.
func (pl *partLog) Table() string { return pl.table }

// Part implements kvstore.PartView.
func (pl *partLog) Part() int { return pl.part }

// Get implements kvstore.PartView.
func (pl *partLog) Get(key any) (any, bool, error) {
	pl.store.cfg.Metrics.AddStoreGets(1)
	return pl.peek(key)
}

// peek is Get without the operation count, for enumeration.
func (pl *partLog) peek(key any) (any, bool, error) {
	kbuf, err := codec.Encode(key)
	if err != nil {
		return nil, false, err
	}
	pl.sh.mu.Lock()
	defer pl.sh.mu.Unlock()
	if err := pl.errLocked(); err != nil {
		return nil, false, err
	}
	return pl.getLocked(key, kbuf)
}

// Put implements kvstore.PartView.
func (pl *partLog) Put(key, value any) error {
	pl.store.cfg.Metrics.AddStorePuts(1)
	return pl.write(opPut, key, value)
}

// Delete implements kvstore.PartView.
func (pl *partLog) Delete(key any) error {
	pl.store.cfg.Metrics.AddStoreDeletes(1)
	return pl.write(opDelete, key, nil)
}

// write appends one record under the shard lock, then makes it durable (when
// configured) outside the lock, so concurrent writers can pile into one group
// commit. A codec.Encoded value's bytes go into the WAL as they are.
func (pl *partLog) write(op byte, key, value any) error {
	start := time.Now()
	kbuf, err := codec.Encode(key)
	if err != nil {
		return err
	}
	var vbuf []byte
	if op == opPut {
		if vbuf, err = codec.Encode(value); err != nil {
			return err
		}
	}
	pl.sh.mu.Lock()
	err = pl.errLocked()
	if err == nil {
		err = pl.applyLocked(op, key, kbuf, vbuf)
	}
	pl.sh.mu.Unlock()
	if err == nil {
		err = pl.store.ackDurable(pl)
	}
	if err != nil {
		return err
	}
	pl.store.cfg.Metrics.StoreWrites().ObserveDuration(time.Since(start))
	return nil
}

// Len implements kvstore.PartView.
func (pl *partLog) Len() (int, error) {
	pl.sh.mu.Lock()
	defer pl.sh.mu.Unlock()
	if err := pl.errLocked(); err != nil {
		return 0, err
	}
	live, err := pl.liveKeysLocked()
	return len(live), err
}

// Enumerate implements kvstore.PartView.
func (pl *partLog) Enumerate(fn kvstore.PairFunc) error { return pl.enumerate(false, fn) }

// EnumerateOrdered implements kvstore.PartView.
func (pl *partLog) EnumerateOrdered(fn kvstore.PairFunc) error { return pl.enumerate(true, fn) }

// enumerate snapshots the live keys under the lock, then visits pairs
// without it so the callback may write to this same part.
func (pl *partLog) enumerate(ordered bool, fn kvstore.PairFunc) error {
	pl.sh.mu.Lock()
	err := pl.errLocked()
	var live map[any]bool
	if err == nil {
		live, err = pl.liveKeysLocked()
	}
	pl.sh.mu.Unlock()
	if err != nil {
		return err
	}
	return tablecore.Visit(tablecore.Keys(live, ordered), pl.peek, fn)
}
