// Package gridstore implements an elastic in-memory key/value store in the
// style of IBM WebSphere eXtreme Scale (the store the paper's SUMMA
// evaluation and fault-tolerance outline used, §IV-B, §V-B): data
// partitioning, synchronous replication, the ability to execute mobile code
// adjacent to the data, and an ACID transaction over all the entries in a
// shard of co-placed replicated tables.
//
// The store also provides failure injection (kill a part's primary replica,
// promoting a survivor), which the EBSP engine's fault-tolerance tests drive.
// A transaction in flight when its shard's primary fails is rolled back and
// reported with kvstore.ErrShardFailed, exactly the recovery point the paper
// outlines: "recover from primary shard failure by deleting writes done by
// the failed shard(s) and retry".
//
// Tables, routing, the marshalling boundary and enumeration live in
// tablecore; this package is the per-part backend — replicas, failover, the
// transaction write-set — and the capabilities built on it.
package gridstore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ripple/internal/kvstore"
	"ripple/internal/kvstore/tablecore"
	"ripple/internal/metrics"
)

// ErrNoReplica is returned by FailPrimary when no surviving replica exists to
// promote.
var ErrNoReplica = errors.New("gridstore: no surviving replica")

// Option configures a Store.
type Option func(*Store)

// WithParts sets the default part count for new tables (default 10, matching
// the paper's ten data-container processes).
func WithParts(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.cfg.DefaultParts = n
		}
	}
}

// WithReplicas sets the replication factor (default 1, i.e. no replicas).
func WithReplicas(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.replicas = n
		}
	}
}

// WithMetrics attaches a metrics collector.
func WithMetrics(m *metrics.Collector) Option {
	return func(s *Store) { s.cfg.Metrics = m }
}

// WithoutMarshalling disables boundary marshalling (ablation only).
func WithoutMarshalling() Option {
	return func(s *Store) { s.cfg.Marshal = false }
}

// WithLatency adds an emulated network latency to every operation that
// crosses a partition boundary (see memstore.WithLatency).
func WithLatency(d time.Duration) Option {
	return func(s *Store) {
		if d > 0 {
			s.cfg.Latency = d
		}
	}
}

// Store is the WXS-like grid store. Its kvstore.Store methods are the
// embedded core's; the capabilities below are its own.
type Store struct {
	*tablecore.Core
	cfg      tablecore.Config // what the options selected; read once, by New
	replicas int

	failovers atomic.Int64 // primary promotions performed by FailPrimary
}

var (
	_ kvstore.Store         = (*Store)(nil)
	_ kvstore.Transactional = (*Store)(nil)
	_ kvstore.Replicated    = (*Store)(nil)
	_ kvstore.Healer        = (*Store)(nil)
	_ kvstore.FailureSensor = (*Store)(nil)
)

// New creates a Store.
func New(opts ...Option) *Store {
	s := &Store{cfg: tablecore.Config{Name: "gridstore", DefaultParts: 10, Marshal: true}, replicas: 1}
	for _, o := range opts {
		o(s)
	}
	s.Core = tablecore.New(s.cfg, func(part, _ int) tablecore.Part { return newShard(s, part) })
	return s
}

// Failovers reports the monotonic count of primary promotions, implementing
// kvstore.FailureSensor.
func (s *Store) Failovers() int64 { return s.failovers.Load() }

// Replicas implements kvstore.Replicated.
func (s *Store) Replicas() int { return s.replicas }

// shard is one replicated partition of a group.
type shard struct {
	store   *Store
	part    int
	stopped atomic.Bool

	// Readers share mu: agents on every part read a ubiquitous table's one
	// part at once.
	mu       sync.RWMutex
	replicas []*replica
	primary  int // index into replicas
	epoch    int // bumped on every failover

	txMu sync.Mutex // serializes transactions on this shard
}

var _ tablecore.Part = (*shard)(nil)

// replica holds one copy of the shard's data across the group's tables.
type replica struct {
	alive bool
	data  map[string]map[any]any // table -> items
}

func newShard(s *Store, part int) *shard {
	sh := &shard{store: s, part: part}
	for r := 0; r < s.replicas; r++ {
		sh.replicas = append(sh.replicas, &replica{alive: true, data: make(map[string]map[any]any)})
	}
	return sh
}

// Create implements tablecore.Part.
func (sh *shard) Create(table string) (kvstore.PartView, error) {
	sh.mu.Lock()
	for _, r := range sh.replicas {
		r.data[table] = make(map[any]any)
	}
	sh.mu.Unlock()
	return &partView{shard: sh, table: table}, nil
}

// Release implements tablecore.Part: the pairs live only here, so letting go
// of them is dropping them.
func (sh *shard) Release(table string) { sh.Drop(table) }

// Drop implements tablecore.Part.
func (sh *shard) Drop(table string) {
	sh.mu.Lock()
	for _, r := range sh.replicas {
		delete(r.data, table)
	}
	sh.mu.Unlock()
}

// Client implements tablecore.Part: requests reach a shard on the caller's
// goroutine.
func (sh *shard) Client(op func()) error { return sh.Run(op) }

// Run implements tablecore.Part: agents run on the caller's goroutine,
// against the primary replica.
func (sh *shard) Run(body func()) error {
	if sh.stopped.Load() {
		return kvstore.ErrClosed
	}
	body()
	return nil
}

// Stop implements tablecore.Part.
func (sh *shard) Stop() error {
	sh.stopped.Store(true)
	return nil
}

// primaryLocked returns the primary replica; callers hold sh.mu, read-locked
// at least.
func (sh *shard) primaryLocked() (*replica, error) {
	r := sh.replicas[sh.primary]
	if !r.alive {
		return nil, fmt.Errorf("gridstore: part %d has no primary: %w", sh.part, kvstore.ErrShardFailed)
	}
	return r, nil
}

// applyLocked writes (or, with deleted set, removes) one pair on every alive
// replica; callers hold sh.mu.
func (sh *shard) applyLocked(table string, key any, w txWrite) {
	for _, r := range sh.replicas {
		if !r.alive {
			continue
		}
		items := r.data[table]
		if w.deleted {
			delete(items, key)
			continue
		}
		if items == nil {
			items = make(map[any]any)
			r.data[table] = items
		}
		items[key] = w.value
	}
}

// shardAt resolves the shard a per-part entry point acts on.
func (s *Store) shardAt(op, table string, part int) (*tablecore.Group, *shard, error) {
	g, err := s.LocatePart(op, table, part)
	if err != nil {
		return nil, nil, err
	}
	return g, g.Parts[part].(*shard), nil
}

// RunTransaction implements kvstore.Transactional: the agent's writes across
// every co-placed table of the shard commit atomically, or not at all. If the
// shard's primary fails while the transaction is open, the transaction is
// rolled back and ErrShardFailed returned.
func (s *Store) RunTransaction(tableName string, part int, agent kvstore.Agent) (any, error) {
	g, sh, err := s.shardAt("RunTransaction", tableName, part)
	if err != nil {
		return nil, err
	}

	sh.txMu.Lock()
	defer sh.txMu.Unlock()

	sh.mu.Lock()
	if _, perr := sh.primaryLocked(); perr != nil {
		sh.mu.Unlock()
		return nil, perr
	}
	startEpoch := sh.epoch
	sh.mu.Unlock()

	tx := &txState{writes: make(map[string]map[any]txWrite)}
	res, err := agent(&txShardView{store: s, group: g, part: part, tx: tx})
	if err != nil {
		return nil, err // write-set discarded: rollback
	}

	// Commit.
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.epoch != startEpoch {
		return nil, fmt.Errorf("gridstore: part %d failed over during transaction: %w",
			part, kvstore.ErrShardFailed)
	}
	if _, perr := sh.primaryLocked(); perr != nil {
		return nil, perr
	}
	for tab, writes := range tx.writes {
		for key, w := range writes {
			sh.applyLocked(tab, key, w)
		}
	}
	return res, nil
}

// FailPrimary implements kvstore.Replicated: it kills the primary replica of
// the named table's part. Its data are discarded and a surviving replica is
// promoted; with no survivor, ErrNoReplica is returned and the shard becomes
// unavailable until Heal.
func (s *Store) FailPrimary(tableName string, part int) error {
	_, sh, err := s.shardAt("FailPrimary", tableName, part)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	prim := sh.replicas[sh.primary]
	prim.alive = false
	prim.data = make(map[string]map[any]any)
	sh.epoch++
	s.failovers.Add(1)
	s.cfg.Metrics.AddFailovers(1)
	for i, r := range sh.replicas {
		if r.alive {
			sh.primary = i
			return nil
		}
	}
	return fmt.Errorf("gridstore: part %d: %w", part, ErrNoReplica)
}

// Heal restores every dead replica of every shard of the named table's group
// by copying the current primary's data, returning the group to full
// replication. Shards with no alive replica are reinitialized empty.
func (s *Store) Heal(tableName string) error {
	g, err := s.Locate(tableName)
	if err != nil {
		return err
	}
	for _, part := range g.Parts {
		part.(*shard).heal()
	}
	return nil
}

func (sh *shard) heal() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var src *replica
	for _, r := range sh.replicas {
		if r.alive {
			src = r
			break
		}
	}
	for i, r := range sh.replicas {
		if r.alive {
			continue
		}
		r.alive = true
		r.data = make(map[string]map[any]any)
		if src == nil {
			sh.primary = i
			src = r
			continue
		}
		for tab, items := range src.data {
			cp := make(map[any]any, len(items))
			for k, v := range items {
				cp[k] = v
			}
			r.data[tab] = cp
		}
	}
}

// txState buffers a transaction's writes until commit.
type txState struct {
	writes map[string]map[any]txWrite // table -> key -> write
}

type txWrite struct {
	value   any
	deleted bool
}

func (tx *txState) set(table string, key any, w txWrite) {
	m := tx.writes[table]
	if m == nil {
		m = make(map[any]txWrite)
		tx.writes[table] = m
	}
	m[key] = w
}

// txShardView is a transaction's window onto its shard: the core resolves
// the name, and the local view it finds is rebound to the write-set.
type txShardView struct {
	store *Store
	group *tablecore.Group
	part  int
	tx    *txState
}

func (sv *txShardView) Part() int { return sv.part }

func (sv *txShardView) View(name string) (kvstore.PartView, error) {
	view, err := sv.store.ViewAt(sv.group, sv.part, name)
	if local, ok := view.(*partView); ok && local.shard == sv.group.Parts[sv.part] {
		return &partView{shard: local.shard, table: local.table, tx: sv.tx}, nil
	}
	return view, err // a ubiquitous table's part: not transactional
}

// partView gives local access to one part of one table, read-through and
// write-buffered when inside a transaction.
type partView struct {
	shard *shard
	table string
	tx    *txState // nil outside transactions
}

var _ kvstore.PartView = (*partView)(nil)

// Table implements kvstore.PartView.
func (pv *partView) Table() string { return pv.table }

// Part implements kvstore.PartView.
func (pv *partView) Part() int { return pv.shard.part }

// Get implements kvstore.PartView.
func (pv *partView) Get(key any) (any, bool, error) {
	pv.shard.store.cfg.Metrics.AddStoreGets(1)
	if pv.tx != nil {
		if w, ok := pv.tx.writes[pv.table][key]; ok {
			return w.value, !w.deleted, nil
		}
	}
	pv.shard.mu.RLock()
	defer pv.shard.mu.RUnlock()
	prim, err := pv.shard.primaryLocked()
	if err != nil {
		return nil, false, err
	}
	v, ok := prim.data[pv.table][key]
	return v, ok, nil
}

// Put implements kvstore.PartView: outside a transaction the write is applied
// synchronously to every alive replica.
func (pv *partView) Put(key, value any) error {
	pv.shard.store.cfg.Metrics.AddStorePuts(1)
	return pv.write(key, txWrite{value: value})
}

// Delete implements kvstore.PartView.
func (pv *partView) Delete(key any) error {
	pv.shard.store.cfg.Metrics.AddStoreDeletes(1)
	return pv.write(key, txWrite{deleted: true})
}

func (pv *partView) write(key any, w txWrite) error {
	if pv.tx != nil {
		pv.tx.set(pv.table, key, w)
		return nil
	}
	pv.shard.mu.Lock()
	defer pv.shard.mu.Unlock()
	if _, err := pv.shard.primaryLocked(); err != nil {
		return err
	}
	pv.shard.applyLocked(pv.table, key, w)
	return nil
}

// merged is the primary's keys for this table with the uncommitted write-set
// laid over them.
func (pv *partView) merged() (map[any]struct{}, error) {
	pv.shard.mu.RLock()
	prim, err := pv.shard.primaryLocked()
	if err != nil {
		pv.shard.mu.RUnlock()
		return nil, err
	}
	items := prim.data[pv.table]
	keys := make(map[any]struct{}, len(items))
	for k := range items {
		keys[k] = struct{}{}
	}
	pv.shard.mu.RUnlock()
	if pv.tx != nil {
		for key, w := range pv.tx.writes[pv.table] {
			if w.deleted {
				delete(keys, key)
			} else {
				keys[key] = struct{}{}
			}
		}
	}
	return keys, nil
}

// Len implements kvstore.PartView. Inside a transaction it accounts for the
// uncommitted write-set.
func (pv *partView) Len() (int, error) {
	if pv.tx != nil {
		keys, err := pv.merged()
		return len(keys), err
	}
	pv.shard.mu.RLock()
	defer pv.shard.mu.RUnlock()
	prim, err := pv.shard.primaryLocked()
	if err != nil {
		return 0, err
	}
	return len(prim.data[pv.table]), nil
}

// Enumerate implements kvstore.PartView.
func (pv *partView) Enumerate(fn kvstore.PairFunc) error { return pv.enumerate(false, fn) }

// EnumerateOrdered implements kvstore.PartView.
func (pv *partView) EnumerateOrdered(fn kvstore.PairFunc) error { return pv.enumerate(true, fn) }

func (pv *partView) enumerate(ordered bool, fn kvstore.PairFunc) error {
	keys, err := pv.merged()
	if err != nil {
		return err
	}
	return tablecore.Visit(tablecore.Keys(keys, ordered), pv.Get, fn)
}
