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
//
// Tables, routing, ubiquitous tables and enumeration live in tablecore; this
// package is the per-part backend (part.go) and the LSM machinery under it.
package diskstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"ripple/internal/kvstore"
	"ripple/internal/kvstore/tablecore"
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
			s.cfg.DefaultParts = n
		}
	}
}

// WithMetrics attaches a metrics collector; the LSM instruments
// (ripple_lsm_*) hang off it.
func WithMetrics(m *metrics.Collector) Option {
	return func(s *Store) { s.cfg.Metrics = m }
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
// Its kvstore.Store methods are the embedded core's.
type Store struct {
	*tablecore.Core
	cfg tablecore.Config // what the options selected; read once, by New

	dir       string
	dirFile   *os.File
	tracer    *trace.Tracer
	memBudget int64
	syncEvery int
	gcWindow  time.Duration
	noGroup   bool
	injector  DiskInjector

	// crashHook, when set by a test, is consulted at the named stages of
	// flushes and compactions; returning an error abandons the operation
	// mid-state, simulating a process kill at that instant.
	crashHook func(stage, table string, part int) error

	syncer    *syncer
	compactor *compactor
	closeOnce sync.Once
}

var _ kvstore.Store = (*Store)(nil)

func errClosed() error { return kvstore.ErrClosed }

func (s *Store) lsm() *metrics.LSMStats { return s.cfg.Metrics.LSM() }

// New creates (or reopens) a Store rooted at dir. Existing table files under
// dir are NOT auto-discovered; CreateTable with a name whose files exist
// loads them (runs from the manifest, then the WAL tail replayed on top).
func New(dir string, opts ...Option) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: mkdir %s: %w", dir, err)
	}
	// The part views encode values into the WAL themselves, so the core's
	// boundary neither marshals nor unwraps a codec.Encoded.
	s := &Store{
		cfg:       tablecore.Config{Name: "diskstore", DefaultParts: 4, ViewsEncode: true},
		dir:       dir,
		memBudget: defaultMemBudget,
	}
	for _, o := range opts {
		o(s)
	}
	// Directory handle for fsyncing renames; best-effort where the platform
	// does not support it.
	s.dirFile, _ = os.Open(dir)
	s.syncer = newSyncer(s)
	s.compactor = newCompactor(s)
	s.Core = tablecore.New(s.cfg, s.newShard)
	return s, nil
}

// Close implements kvstore.Store: the compactor and the group-commit loop
// stop first, so no background merge or fsync races the final flushes; then
// every part flushes its memtable to a run (so the next open replays nothing)
// and closes its files.
func (s *Store) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.compactor.stop()
		s.syncer.stop()
		err = s.Core.Close()
		if s.dirFile != nil {
			_ = s.dirFile.Close()
		}
	})
	return err
}

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

// partLogs resolves the named table's part logs in part order; a part whose
// table was dropped meanwhile is nil.
func (s *Store) partLogs(table string) ([]*partLog, error) {
	g, err := s.Locate(table)
	if err != nil {
		return nil, err
	}
	logs := make([]*partLog, len(g.Parts))
	for p, part := range g.Parts {
		sh := part.(*shard)
		sh.mu.Lock()
		logs[p] = sh.logs[table]
		sh.mu.Unlock()
	}
	return logs, nil
}

// Flush implements kvstore.Flusher: every table-part's WAL is drained and
// fsynced, so everything acknowledged so far survives power loss, not just
// process death. Checkpoint commits and ripple-serve's job records rely on
// exactly this.
func (s *Store) Flush() error {
	var firstErr error
	for _, name := range s.Tables() {
		logs, err := s.partLogs(name)
		if err != nil {
			continue // dropped since, or the store closed
		}
		for _, pl := range logs {
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

// Compact force-merges every part of the named table into a single run per
// part, dropping tombstones and superseded versions. Blocking and
// synchronous, unlike the background compactor; the LogSize after equals
// the live data plus per-run framing.
func (s *Store) Compact(tableName string) error {
	logs, err := s.partLogs(tableName)
	if err != nil {
		return err
	}
	for p, pl := range logs {
		if pl == nil {
			return fmt.Errorf("%w: %q", kvstore.ErrNoTable, tableName)
		}
		if err := pl.compact(); err != nil {
			return fmt.Errorf("diskstore: compact %s part %d: %w", tableName, p, err)
		}
	}
	return nil
}

// LogSize reports the on-disk byte size of the named table's WAL and runs.
func (s *Store) LogSize(tableName string) (int64, error) {
	logs, err := s.partLogs(tableName)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, pl := range logs {
		if pl == nil {
			continue
		}
		pl.sh.mu.Lock()
		if pl.wal != nil {
			total += pl.wal.size
		}
		for _, r := range pl.runs {
			total += r.size
		}
		pl.sh.mu.Unlock()
	}
	return total, nil
}

// openAppend opens path for appending; split out for tests that need to
// corrupt a log.
func openAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
}
