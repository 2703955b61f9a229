package chaos

import "ripple/internal/kvstore"

// Wrap decorates a store with the injector's faults: table client operations
// (Get/Put/Delete/Size and enumeration entry) and agent dispatches can fail
// with kvstore.ErrTransient or stall, and scheduled kills fire at dispatch
// boundaries. Faults are injected before any work happens, so a failed
// operation had no effect and is safe to retry.
//
// The decorator answers for exactly the optional capabilities of the repo's
// stores, so the engine's capability probing sees through it: Flusher for
// diskstore; Healer, FailureSensor and TraceBinder for the networked client;
// Transactional, Replicated, Healer and FailureSensor for gridstore; none for
// memstore. Any other set is narrowed to the largest of these it contains,
// so no capability is ever claimed that the inner store lacks.
func Wrap(inner kvstore.Store, inj *Injector) kvstore.Store {
	s := &Store{inner: inner, inj: inj}
	_, flush := inner.(kvstore.Flusher)
	_, tx := inner.(kvstore.Transactional)
	_, repl := inner.(kvstore.Replicated)
	_, heal := inner.(kvstore.Healer)
	_, sense := inner.(kvstore.FailureSensor)
	_, bind := inner.(kvstore.TraceBinder)
	switch {
	case tx && repl && heal && sense:
		return &fullStore{sensingStore{s}}
	case heal && sense && bind:
		return &tracingStore{sensingStore{s}}
	case flush:
		return &flushingStore{s}
	}
	return s
}

// Store is the fault-injecting decorator for plain stores.
type Store struct {
	inner kvstore.Store
	inj   *Injector
}

var _ kvstore.Store = (*Store)(nil)

// Name identifies the decorated implementation.
func (s *Store) Name() string { return s.inner.Name() + "+chaos" }

// DefaultParts delegates to the inner store.
func (s *Store) DefaultParts() int { return s.inner.DefaultParts() }

// Injector returns the store's fault injector.
func (s *Store) Injector() *Injector { return s.inj }

// CreateTable creates the table on the inner store and wraps the handle.
func (s *Store) CreateTable(name string, opts ...kvstore.TableOption) (kvstore.Table, error) {
	t, err := s.inner.CreateTable(name, opts...)
	if err != nil {
		return nil, err
	}
	return &table{inner: t, inj: s.inj}, nil
}

// LookupTable wraps the inner handle.
func (s *Store) LookupTable(name string) (kvstore.Table, bool) {
	t, ok := s.inner.LookupTable(name)
	if !ok {
		return nil, false
	}
	return &table{inner: t, inj: s.inj}, true
}

// DropTable delegates to the inner store.
func (s *Store) DropTable(name string) error { return s.inner.DropTable(name) }

// Tables delegates to the inner store.
func (s *Store) Tables() []string { return s.inner.Tables() }

// RunAgent fires due kills, maybe injects a dispatch fault, then delegates.
func (s *Store) RunAgent(tableName string, part int, agent kvstore.Agent) (any, error) {
	if err := s.inj.agentFault(s.inner, tableName, part); err != nil {
		return nil, err
	}
	return s.inner.RunAgent(tableName, part, agent)
}

// Close delegates to the inner store.
func (s *Store) Close() error { return s.inner.Close() }

// flushingStore extends Store with a buffered inner store's commit point.
type flushingStore struct {
	*Store
}

var _ kvstore.Flusher = (*flushingStore)(nil)

// Flush delegates to the inner store.
func (s *flushingStore) Flush() error { return s.inner.(kvstore.Flusher).Flush() }

// sensingStore extends Store with the failover-recovery capabilities of a
// replicated inner store: the engine's heal/checkpoint-restore path sees
// through the decorator.
type sensingStore struct {
	*Store
}

var (
	_ kvstore.Healer        = (*sensingStore)(nil)
	_ kvstore.FailureSensor = (*sensingStore)(nil)
)

// Heal delegates replica restoration to the inner store.
func (s *sensingStore) Heal(table string) error { return s.inner.(kvstore.Healer).Heal(table) }

// Failovers delegates to the inner store's failure sensor.
func (s *sensingStore) Failovers() int64 { return s.inner.(kvstore.FailureSensor).Failovers() }

// tracingStore extends sensingStore with the networked client's trace
// binding.
type tracingStore struct {
	sensingStore
}

var _ kvstore.TraceBinder = (*tracingStore)(nil)

// BindTrace delegates trace binding to the inner transport.
func (s *tracingStore) BindTrace(traceID uint64) { s.inner.(kvstore.TraceBinder).BindTrace(traceID) }

// fullStore extends sensingStore with the capabilities of a transactional,
// replicated inner store.
type fullStore struct {
	sensingStore
}

var (
	_ kvstore.Transactional = (*fullStore)(nil)
	_ kvstore.Replicated    = (*fullStore)(nil)
)

// RunTransaction fires due kills, maybe injects a dispatch fault, then
// delegates to the inner transaction.
func (s *fullStore) RunTransaction(tableName string, part int, agent kvstore.Agent) (any, error) {
	if err := s.inj.agentFault(s.inner, tableName, part); err != nil {
		return nil, err
	}
	return s.inner.(kvstore.Transactional).RunTransaction(tableName, part, agent)
}

// Replicas delegates to the inner store.
func (s *fullStore) Replicas() int { return s.inner.(kvstore.Replicated).Replicas() }

// FailPrimary delegates to the inner store's failure injection.
func (s *fullStore) FailPrimary(table string, part int) error {
	return s.inner.(kvstore.Replicated).FailPrimary(table, part)
}

// table is the fault-injecting decorator for table handles.
type table struct {
	inner kvstore.Table
	inj   *Injector
}

var _ kvstore.Table = (*table)(nil)

// Name delegates to the inner table.
func (t *table) Name() string { return t.inner.Name() }

// Parts delegates to the inner table.
func (t *table) Parts() int { return t.inner.Parts() }

// Ubiquitous delegates to the inner table.
func (t *table) Ubiquitous() bool { return t.inner.Ubiquitous() }

// PartOf delegates to the inner table.
func (t *table) PartOf(key any) int { return t.inner.PartOf(key) }

// Get maybe injects a fault, then delegates.
func (t *table) Get(key any) (any, bool, error) {
	if err := t.inj.tableFault(t.inner.Name(), t.inner.PartOf(key)); err != nil {
		return nil, false, err
	}
	return t.inner.Get(key)
}

// Put maybe injects a fault, then delegates.
func (t *table) Put(key, value any) error {
	if err := t.inj.tableFault(t.inner.Name(), t.inner.PartOf(key)); err != nil {
		return err
	}
	return t.inner.Put(key, value)
}

// Delete maybe injects a fault, then delegates.
func (t *table) Delete(key any) error {
	if err := t.inj.tableFault(t.inner.Name(), t.inner.PartOf(key)); err != nil {
		return err
	}
	return t.inner.Delete(key)
}

// Size maybe injects a fault, then delegates.
func (t *table) Size() (int, error) {
	if err := t.inj.tableFault(t.inner.Name(), -1); err != nil {
		return 0, err
	}
	return t.inner.Size()
}

// EnumerateParts maybe injects an entry fault, then delegates. Faults fire
// only before any part is visited, so a failed enumeration is retryable.
func (t *table) EnumerateParts(pc kvstore.PartConsumer) (any, error) {
	if err := t.inj.tableFault(t.inner.Name(), -1); err != nil {
		return nil, err
	}
	return t.inner.EnumerateParts(pc)
}

// EnumeratePairs maybe injects an entry fault, then delegates.
func (t *table) EnumeratePairs(pc kvstore.PairConsumer) (any, error) {
	if err := t.inj.tableFault(t.inner.Name(), -1); err != nil {
		return nil, err
	}
	return t.inner.EnumeratePairs(pc)
}
