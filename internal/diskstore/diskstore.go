// Package diskstore implements the Ripple KVStore SPI on local disk as a
// log-structured merge (LSM) engine: each table part is a size-bounded
// in-memory memtable in front of a checksummed write-ahead log, flushed into
// immutable SSTable runs (sorted blocks + sparse index + bloom filter) that a
// background goroutine merges level by level. A tiny per-part manifest names
// the live runs, so open replays only the WAL tail — open time is bounded by
// the memtable budget, not by table history — and the working set can exceed
// memory by any factor the disk affords.
//
// It stands in for the paper's HBase adapter (§IV-B): a store with a very
// different cost profile behind the same narrow SPI, demonstrating the store
// portability the paper argues for. It intentionally offers no replication
// or transactions — the EBSP engine must work against the minimum SPI
// surface.
package diskstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ripple/internal/codec"
	"ripple/internal/kvstore"
	"ripple/internal/metrics"
	"ripple/internal/trace"
)

// DiskInjector is the disk fault-injection hook (implemented by
// chaos.Injector): FsyncFault is consulted before every WAL or SSTable
// fsync and may delay it or fail it with a retryable error; TornTail is
// consulted when a WAL is opened and returns how many tail bytes to clip,
// simulating a torn write from the previous crash.
type DiskInjector interface {
	FsyncFault(table string, part int) (delay time.Duration, err error)
	TornTail(table string, part int) (clipBytes int)
}

// Option configures a Store.
type Option func(*Store)

// WithParts sets the default part count for new tables (default 4).
func WithParts(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.defaultParts = n
		}
	}
}

// WithMetrics attaches a metrics collector; the LSM instruments
// (ripple_lsm_*) hang off it.
func WithMetrics(m *metrics.Collector) Option {
	return func(s *Store) { s.metrics = m }
}

// WithTracer attaches an event tracer recording WAL replays on table open,
// memtable flushes, and run compactions.
func WithTracer(t *trace.Tracer) Option {
	return func(s *Store) { s.tracer = t }
}

// WithMemtableBudget bounds each table's in-memory footprint: a table's
// budget is divided evenly among its parts, and a part whose memtable
// exceeds its share is flushed to an SSTable run. The default is 8 MiB per
// table. Setting a budget far below the data size is how the store runs
// out-of-core.
func WithMemtableBudget(bytes int64) Option {
	return func(s *Store) {
		if bytes > 0 {
			s.memBudget = bytes
		}
	}
}

// WithSyncEvery makes every nth acknowledged write per part wait for its WAL
// records to be fsynced (n=1: every write is durable against power loss when
// Put returns). Zero, the default, fsyncs only at Flush, memtable flushes,
// and Close. The fsync rides the store's group-commit loop, so concurrent
// writers share one disk sync.
func WithSyncEvery(n int) Option {
	return func(s *Store) {
		if n >= 0 {
			s.syncEvery = n
		}
	}
}

// WithGroupCommitWindow stretches each group-commit batch: after the first
// waiter arrives the committer lingers w before syncing, trading commit
// latency for larger batches. The default (0) batches only what accumulates
// naturally while the previous fsync is in flight.
func WithGroupCommitWindow(w time.Duration) Option {
	return func(s *Store) {
		if w > 0 {
			s.gcWindow = w
		}
	}
}

// WithoutGroupCommit makes each durable write fsync inline instead of
// riding the group-commit loop. It exists as the benchmark baseline that
// shows what group commit buys; there is no good production reason to use
// it.
func WithoutGroupCommit() Option {
	return func(s *Store) { s.noGroup = true }
}

// WithDiskInjector wires a disk fault injector into fsyncs and WAL opens.
func WithDiskInjector(di DiskInjector) Option {
	return func(s *Store) { s.injector = di }
}

const (
	defaultMemBudget = 8 << 20
	// minMemtable keeps a degenerate budget from flushing every write.
	minMemtable = 4 << 10
	// compactTrigger: a level with this many runs is merged into one run at
	// the next level down.
	compactTrigger = 4
)

// Store is the disk-backed store. All data live under its base directory.
type Store struct {
	dir          string
	dirFile      *os.File
	defaultParts int
	metrics      *metrics.Collector
	tracer       *trace.Tracer
	memBudget    int64
	syncEvery    int
	gcWindow     time.Duration
	noGroup      bool
	injector     DiskInjector

	// crashHook, when set by a test, is consulted at the named stages of
	// flushes and compactions; returning an error abandons the operation
	// mid-state, simulating a process kill at that instant.
	crashHook func(stage, table string, part int) error

	syncer    *syncer
	compactor *compactor

	mu     sync.Mutex
	closed bool
	tables map[string]*table
	order  []string
	nextID int
}

var _ kvstore.Store = (*Store)(nil)

func errClosed() error { return kvstore.ErrClosed }

func (s *Store) lsm() *metrics.LSMStats { return s.metrics.LSM() }

type group struct {
	id     string
	parts  int
	hasher codec.Hasher
	shards []*shard
}

// Placement implements tablecore.Placed.
func (g *group) Placement() (int, codec.Hasher) { return g.parts, g.hasher }

// shard owns the part state (one per member table) for one part.
type shard struct {
	part int
	mu   sync.Mutex
	logs map[string]*partLog // table name -> part state
}

// partLog is one table-part of the LSM tree: the WAL + memtable head and the
// immutable runs below it. Fields are guarded by the owning shard's mutex
// except where noted.
type partLog struct {
	store  *Store
	sh     *shard
	table  string
	part   int
	memCap int64

	wal     *wal
	mem     *memtable
	runs    []*sstable // newest first
	nextSeq uint64
	dropped bool

	unsynced atomic.Int64 // durable-write cadence counter (WithSyncEvery > 1)
	mergeMu  sync.Mutex   // serializes merges on this part (not sh.mu)
}

// New creates (or reopens) a Store rooted at dir. Existing table files under
// dir are NOT auto-discovered; CreateTable with a name whose files exist
// loads them (runs from the manifest, then the WAL tail replayed on top).
func New(dir string, opts ...Option) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: mkdir %s: %w", dir, err)
	}
	s := &Store{
		dir:          dir,
		defaultParts: 4,
		memBudget:    defaultMemBudget,
		tables:       make(map[string]*table),
	}
	for _, o := range opts {
		o(s)
	}
	// Directory handle for fsyncing renames; best-effort where the platform
	// does not support it.
	s.dirFile, _ = os.Open(dir)
	s.syncer = newSyncer(s)
	s.compactor = newCompactor(s)
	return s, nil
}

// Name implements kvstore.Store.
func (s *Store) Name() string { return "diskstore" }

// DefaultParts implements kvstore.Store.
func (s *Store) DefaultParts() int { return s.defaultParts }

// syncDir fsyncs the store directory so file renames are durable.
func (s *Store) syncDir() {
	if s.dirFile != nil {
		_ = s.dirFile.Sync()
	}
}

func (s *Store) hook(stage, table string, part int) error {
	if s.crashHook == nil {
		return nil
	}
	return s.crashHook(stage, table, part)
}

// CreateTable implements kvstore.Store. If files for the table already exist
// under the store directory they are loaded, making the previous contents
// visible again: manifest-listed runs are opened (no data read), and only
// the WAL tail is replayed.
func (s *Store) CreateTable(name string, opts ...kvstore.TableOption) (kvstore.Table, error) {
	cfg := kvstore.ApplyOptions(s.defaultParts, opts)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, kvstore.ErrClosed
	}
	if _, ok := s.tables[name]; ok {
		return nil, fmt.Errorf("%w: %q", kvstore.ErrTableExists, name)
	}
	var g *group
	if cfg.ConsistentWith != "" {
		base, ok := s.tables[cfg.ConsistentWith]
		if !ok {
			return nil, fmt.Errorf("%w: consistent-with %q", kvstore.ErrNoTable, cfg.ConsistentWith)
		}
		g = base.group
	} else {
		s.nextID++
		g = &group{id: fmt.Sprintf("g%d", s.nextID), parts: cfg.Parts, hasher: cfg.Hasher}
		for p := 0; p < cfg.Parts; p++ {
			g.shards = append(g.shards, &shard{part: p, logs: make(map[string]*partLog)})
		}
	}
	t := &table{store: s, name: name, group: g, ubiquitous: cfg.Ubiquitous}
	parts := g.parts
	if cfg.Ubiquitous {
		parts = 1
	}
	for p := 0; p < parts; p++ {
		pl, err := s.openPartLog(name, p, parts)
		if err != nil {
			return nil, err
		}
		sh := g.shards[p]
		pl.sh = sh
		sh.mu.Lock()
		sh.logs[name] = pl
		sh.mu.Unlock()
	}
	s.tables[name] = t
	s.order = append(s.order, name)
	return t, nil
}

func (s *Store) logPath(table string, part int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s.%d.log", table, part))
}

func (s *Store) sstPath(table string, part int, seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s.%d.%d.sst", table, part, seq))
}

func (s *Store) manifestPath(table string, part int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s.%d.manifest", table, part))
}

// removeOrphans deletes this part's .sst files that the manifest does not
// list (crash leftovers from an interrupted flush or compaction) and any
// stale .tmp files. With live == nil everything is removed (DropTable).
func (s *Store) removeOrphans(table string, part int, live map[uint64]bool) {
	prefix := fmt.Sprintf("%s.%d.", table, part)
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		rest := name[len(prefix):]
		switch {
		case strings.HasSuffix(rest, ".sst"):
			seq, err := strconv.ParseUint(strings.TrimSuffix(rest, ".sst"), 10, 64)
			if err != nil {
				continue // a dotted sibling table's file, not ours
			}
			if live == nil || !live[seq] {
				_ = os.Remove(filepath.Join(s.dir, name))
			}
		case strings.HasSuffix(rest, ".tmp") && !strings.Contains(strings.TrimSuffix(rest, ".tmp"), "."):
			_ = os.Remove(filepath.Join(s.dir, name))
		case strings.HasSuffix(rest, ".sst.tmp"):
			if _, err := strconv.ParseUint(strings.TrimSuffix(rest, ".sst.tmp"), 10, 64); err == nil {
				_ = os.Remove(filepath.Join(s.dir, name))
			}
		}
	}
}

// openPartLog loads one table-part: runs named by the manifest, crash
// orphans removed, and the WAL tail replayed into a fresh memtable. The
// partLog is not yet published, so no locking is needed.
func (s *Store) openPartLog(table string, part, parts int) (*partLog, error) {
	memCap := s.memBudget / int64(parts)
	if memCap < minMemtable {
		memCap = minMemtable
	}
	pl := &partLog{
		store:   s,
		table:   table,
		part:    part,
		memCap:  memCap,
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
			s.lsm().MemtableBytes().Add(-pl.mem.bytes)
			for _, r := range pl.runs {
				s.lsm().RunCounts().Add(r.level, -1)
			}
			return fail(err)
		}
	}
	return pl, nil
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
func (pl *partLog) liveKeysLocked() ([]any, error) {
	decided := make(map[any]bool, pl.mem.len())
	for k, e := range pl.mem.entries {
		decided[k] = !e.tomb
	}
	for _, run := range pl.runs {
		err := run.scan(func(op byte, key any, _, _ []byte) error {
			if _, ok := decided[key]; !ok {
				decided[key] = op == opPut
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	keys := make([]any, 0, len(decided))
	for k, lv := range decided {
		if lv {
			keys = append(keys, k)
		}
	}
	return keys, nil
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
	s.lsm().RunCounts().Add(0, 1)
	s.tracer.Record(trace.KindMemtableFlush, pl.table, 0, pl.part, size, time.Since(start))
	s.compactor.hint(pl)
	return nil
}

// writeManifestFor persists the part's shape (runs newest-first, next run
// sequence) atomically. Caller holds the shard lock.
func (s *Store) writeManifestFor(pl *partLog, runs []*sstable, nextSeq uint64) error {
	m := manifest{NextSeq: nextSeq, Runs: make([]manifestRun, len(runs))}
	for i, r := range runs {
		m.Runs[i] = manifestRun{Seq: r.seq, Level: r.level, Entries: r.entries, Bytes: r.size}
	}
	if err := writeManifest(s.manifestPath(pl.table, pl.part), m); err != nil {
		return err
	}
	s.syncDir()
	return nil
}

// fsyncFault consults the chaos injector ahead of an fsync.
func (s *Store) fsyncFault(table string, part int) error {
	if s.injector == nil {
		return nil
	}
	delay, err := s.injector.FsyncFault(table, part)
	if delay > 0 {
		time.Sleep(delay)
	}
	return err
}

// syncWAL drains and fsyncs this part's WAL (the group-commit worker and
// Flush call it). Only the buffer drain runs under the shard lock; the
// fsync itself does not, so writers keep appending — and queueing for the
// next group commit — while this one is on the disk. That concurrency is
// what lets batches form at all.
func (pl *partLog) syncWAL() error {
	pl.sh.mu.Lock()
	if pl.dropped || pl.wal == nil {
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
		// A concurrent DropTable closes the file out from under the sync;
		// durability of a dropped table is moot.
		pl.sh.mu.Lock()
		dropped := pl.dropped
		pl.sh.mu.Unlock()
		if dropped {
			return nil
		}
		return err
	}
	pl.store.lsm().AddWALSyncs(1)
	return nil
}

// ackDurable makes a completed write durable per the store's WithSyncEvery
// cadence, riding the group-commit loop unless disabled. Called without the
// shard lock.
func (s *Store) ackDurable(pl *partLog) error {
	n := s.syncEvery
	if n <= 0 {
		return nil
	}
	if n > 1 && pl.unsynced.Add(1)%int64(n) != 0 {
		return nil
	}
	if s.noGroup {
		return pl.syncWALNaive()
	}
	return s.syncer.await(pl)
}

// syncWALNaive is the WithoutGroupCommit path: append-then-fsync inline,
// holding the part lock for the whole disk sync — the textbook naive durable
// write every writer pays for individually. It exists so the group-commit
// benchmark has an honest baseline.
func (pl *partLog) syncWALNaive() error {
	pl.sh.mu.Lock()
	defer pl.sh.mu.Unlock()
	if pl.dropped || pl.wal == nil {
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

// LookupTable implements kvstore.Store.
func (s *Store) LookupTable(name string) (kvstore.Table, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	if !ok {
		return nil, false
	}
	return t, true
}

// DropTable implements kvstore.Store: the table's WAL, manifest, and run
// files are removed.
func (s *Store) DropTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	if !ok {
		return fmt.Errorf("%w: %q", kvstore.ErrNoTable, name)
	}
	delete(s.tables, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	parts := t.group.parts
	if t.ubiquitous {
		parts = 1
	}
	for p := 0; p < parts; p++ {
		sh := t.group.shards[p]
		sh.mu.Lock()
		if pl := sh.logs[name]; pl != nil {
			pl.dropped = true
			_ = pl.wal.close()
			pl.wal = nil
			s.lsm().MemtableBytes().Add(-pl.mem.bytes)
			for _, r := range pl.runs {
				_ = r.close()
				s.lsm().RunCounts().Add(r.level, -1)
			}
			pl.runs = nil
			delete(sh.logs, name)
		}
		sh.mu.Unlock()
		_ = os.Remove(s.logPath(name, p))
		_ = os.Remove(s.manifestPath(name, p))
		s.removeOrphans(name, p, nil)
	}
	return nil
}

// Tables implements kvstore.Store.
func (s *Store) Tables() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// RunAgent implements kvstore.Store.
func (s *Store) RunAgent(tableName string, part int, agent kvstore.Agent) (any, error) {
	s.mu.Lock()
	t, ok := s.tables[tableName]
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, kvstore.ErrClosed
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", kvstore.ErrNoTable, tableName)
	}
	parts := t.Parts()
	if err := kvstore.CheckPart(part, parts); err != nil {
		return nil, err
	}
	sv := &shardView{store: s, group: t.group, shard: t.group.shards[part]}
	return agent(sv)
}

// Flush implements kvstore.Flusher: every table-part's WAL is drained and
// fsynced, so everything acknowledged so far survives power loss, not just
// process death. Checkpoint commits and ripple-serve's job records rely on
// exactly this.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var firstErr error
	for _, t := range s.tables {
		parts := t.group.parts
		if t.ubiquitous {
			parts = 1
		}
		for p := 0; p < parts; p++ {
			sh := t.group.shards[p]
			sh.mu.Lock()
			pl := sh.logs[t.name]
			sh.mu.Unlock()
			if pl == nil {
				continue
			}
			if err := pl.syncWAL(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Close implements kvstore.Store: the compactor and group-commit loop are
// stopped, every memtable is flushed to a run (so the next open replays
// nothing), and all files are closed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.compactor.stop()
	s.syncer.stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, t := range s.tables {
		parts := t.group.parts
		if t.ubiquitous {
			parts = 1
		}
		for p := 0; p < parts; p++ {
			sh := t.group.shards[p]
			sh.mu.Lock()
			pl := sh.logs[t.name]
			if pl != nil {
				if err := pl.flushLocked(); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					// Fall back to making the WAL durable as-is.
					_ = pl.wal.sync()
				}
				s.lsm().MemtableBytes().Add(-pl.mem.bytes)
				if err := pl.wal.close(); err != nil && firstErr == nil {
					firstErr = err
				}
				pl.wal = nil
				for _, r := range pl.runs {
					_ = r.close()
					s.lsm().RunCounts().Add(r.level, -1)
				}
				pl.runs = nil
				delete(sh.logs, t.name)
			}
			sh.mu.Unlock()
		}
	}
	if s.dirFile != nil {
		_ = s.dirFile.Close()
	}
	return firstErr
}

func sortKeysStable(keys []any) {
	sort.Slice(keys, func(i, j int) bool { return codec.CompareKeys(keys[i], keys[j]) < 0 })
}

// openAppend opens path for appending; split out for tests that need to
// corrupt a log.
func openAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
}

// LogSize reports the on-disk byte size of the named table's WAL and runs.
func (s *Store) LogSize(tableName string) (int64, error) {
	s.mu.Lock()
	t, ok := s.tables[tableName]
	s.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", kvstore.ErrNoTable, tableName)
	}
	parts := t.group.parts
	if t.ubiquitous {
		parts = 1
	}
	var total int64
	for p := 0; p < parts; p++ {
		sh := t.group.shards[p]
		sh.mu.Lock()
		if pl := sh.logs[t.name]; pl != nil {
			if pl.wal != nil {
				total += pl.wal.size
			}
			for _, r := range pl.runs {
				total += r.size
			}
		}
		sh.mu.Unlock()
	}
	return total, nil
}
