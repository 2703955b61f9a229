// Package memstore implements the paper's "parallel debugging store" (§V-A):
// an in-process approximation of a distributed key/value store.
//
// The store is divided into a configurable number of partitions. Each
// partition is served by two goroutines: one handles short request-response
// table operations (get, put, delete), while the other handles — one at a
// time — long-running requests (enumerations and agent dispatches).
// Communication between emulated partitions involves marshalling and
// un-marshalling through the codec; local operations (an agent touching its
// own part) do not. This reproduces both the isolation and the relative cost
// structure of a real distributed store.
//
// Tables, routing, the marshalling boundary and enumeration live in
// tablecore; this package is the per-part backend: one map per table behind
// the goroutine pair.
package memstore

import (
	"fmt"
	"sync"
	"time"

	"ripple/internal/kvstore"
	"ripple/internal/kvstore/tablecore"
	"ripple/internal/metrics"
)

// Option configures a Store.
type Option func(*Store)

// WithParts sets the default part count for new tables (default 6, matching
// the paper's evaluation configuration).
func WithParts(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.cfg.DefaultParts = n
		}
	}
}

// WithMetrics attaches a metrics collector.
func WithMetrics(m *metrics.Collector) Option {
	return func(s *Store) { s.cfg.Metrics = m }
}

// WithoutMarshalling disables cross-partition marshalling. This removes the
// emulated network cost (and the isolation it provides); it exists for
// ablation benchmarks only.
func WithoutMarshalling() Option {
	return func(s *Store) { s.cfg.Marshal = false }
}

// WithLatency adds an emulated network latency to every operation that
// crosses a partition boundary. On a single-core host this is what makes
// concurrency effects (e.g. removing synchronization barriers) visible in
// wall-clock time, standing in for the paper's multi-container testbed.
func WithLatency(d time.Duration) Option {
	return func(s *Store) {
		if d > 0 {
			s.cfg.Latency = d
		}
	}
}

// Store is the parallel debugging store. Its kvstore.Store methods are the
// embedded core's.
type Store struct {
	*tablecore.Core
	cfg tablecore.Config // what the options selected; read once, by New
}

var _ kvstore.Store = (*Store)(nil)

// New creates a Store.
func New(opts ...Option) *Store {
	s := &Store{cfg: tablecore.Config{Name: "memstore", DefaultParts: 6, Marshal: true}}
	for _, o := range opts {
		o(s)
	}
	s.Core = tablecore.New(s.cfg, func(part, _ int) tablecore.Part { return newShard(part, s.cfg.Metrics) })
	return s
}

// shard is one partition of one group: its data (across all of the group's
// tables) and the two service goroutines.
type shard struct {
	part    int
	metrics *metrics.Collector

	// Readers share mu: agents on every part read a ubiquitous table's one
	// part at once.
	mu   sync.RWMutex
	data map[string]map[any]any // table name -> pairs

	ops  chan func() // short request-response operations
	long chan func() // long-running requests, served one at a time
	done chan struct{}
	wg   sync.WaitGroup
}

var _ tablecore.Part = (*shard)(nil)

func newShard(part int, m *metrics.Collector) *shard {
	sh := &shard{
		part:    part,
		metrics: m,
		data:    make(map[string]map[any]any),
		ops:     make(chan func()),
		long:    make(chan func()),
		done:    make(chan struct{}),
	}
	sh.wg.Add(2)
	go sh.serve(sh.ops)
	go sh.serve(sh.long)
	return sh
}

func (sh *shard) serve(ch chan func()) {
	defer sh.wg.Done()
	for {
		select {
		case fn := <-ch:
			fn()
		case <-sh.done:
			// Drain anything already queued so no caller blocks forever.
			for {
				select {
				case fn := <-ch:
					fn()
				default:
					return
				}
			}
		}
	}
}

// dispatch runs fn on one of the shard's service goroutines and waits for it.
func (sh *shard) dispatch(ch chan func(), fn func()) error {
	doneC := make(chan struct{})
	wrapped := func() {
		defer close(doneC)
		fn()
	}
	select {
	case ch <- wrapped:
	case <-sh.done:
		return kvstore.ErrClosed
	}
	<-doneC
	return nil
}

// Create implements tablecore.Part.
func (sh *shard) Create(table string) (kvstore.PartView, error) {
	sh.mu.Lock()
	sh.data[table] = make(map[any]any)
	sh.mu.Unlock()
	return &partView{shard: sh, table: table}, nil
}

// Release implements tablecore.Part: the pairs live only here, so letting go
// of them is dropping them.
func (sh *shard) Release(table string) { sh.Drop(table) }

// Drop implements tablecore.Part.
func (sh *shard) Drop(table string) {
	sh.mu.Lock()
	delete(sh.data, table)
	sh.mu.Unlock()
}

// Client implements tablecore.Part: the request-response goroutine.
func (sh *shard) Client(op func()) error { return sh.dispatch(sh.ops, op) }

// Run implements tablecore.Part: the long-request goroutine.
func (sh *shard) Run(body func()) error { return sh.dispatch(sh.long, body) }

// Stop implements tablecore.Part.
func (sh *shard) Stop() error {
	close(sh.done)
	sh.wg.Wait()
	return nil
}

// partView gives local (unmarshalled) access to one part of one table.
type partView struct {
	shard *shard
	table string
}

var _ kvstore.PartView = (*partView)(nil)

// Table implements kvstore.PartView.
func (pv *partView) Table() string { return pv.table }

// Part implements kvstore.PartView.
func (pv *partView) Part() int { return pv.shard.part }

// items returns the part's pairs; callers hold shard.mu, read-locked at
// least.
func (pv *partView) items() (map[any]any, error) {
	items := pv.shard.data[pv.table]
	if items == nil {
		return nil, fmt.Errorf("%w: %q", kvstore.ErrNoTable, pv.table)
	}
	return items, nil
}

// Get implements kvstore.PartView: local access, no marshalling.
func (pv *partView) Get(key any) (any, bool, error) {
	pv.shard.metrics.AddStoreGets(1)
	return pv.peek(key)
}

// peek is Get without the operation count, for enumeration.
func (pv *partView) peek(key any) (any, bool, error) {
	pv.shard.mu.RLock()
	defer pv.shard.mu.RUnlock()
	items, err := pv.items()
	if err != nil {
		return nil, false, err
	}
	v, ok := items[key]
	return v, ok, nil
}

// Put implements kvstore.PartView.
func (pv *partView) Put(key, value any) error {
	pv.shard.metrics.AddStorePuts(1)
	pv.shard.mu.Lock()
	defer pv.shard.mu.Unlock()
	items, err := pv.items()
	if err != nil {
		return err
	}
	items[key] = value
	return nil
}

// Delete implements kvstore.PartView.
func (pv *partView) Delete(key any) error {
	pv.shard.metrics.AddStoreDeletes(1)
	pv.shard.mu.Lock()
	defer pv.shard.mu.Unlock()
	items, err := pv.items()
	if err != nil {
		return err
	}
	delete(items, key)
	return nil
}

// Len implements kvstore.PartView.
func (pv *partView) Len() (int, error) {
	pv.shard.mu.RLock()
	defer pv.shard.mu.RUnlock()
	items, err := pv.items()
	return len(items), err
}

// Enumerate implements kvstore.PartView.
func (pv *partView) Enumerate(fn kvstore.PairFunc) error { return pv.enumerate(false, fn) }

// EnumerateOrdered implements kvstore.PartView.
func (pv *partView) EnumerateOrdered(fn kvstore.PairFunc) error { return pv.enumerate(true, fn) }

// enumerate snapshots the keys under the lock, then visits pairs without it
// so the callback may freely Put/Delete on this same view.
func (pv *partView) enumerate(ordered bool, fn kvstore.PairFunc) error {
	pv.shard.mu.RLock()
	items, err := pv.items()
	keys := tablecore.Keys(items, ordered)
	pv.shard.mu.RUnlock()
	if err != nil {
		return err
	}
	return tablecore.Visit(keys, pv.peek, fn)
}
