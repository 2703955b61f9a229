package spispan

import (
	"fmt"

	"ripple/internal/kvstore"
)

// Wrap decorates a store so that every SPI call made through it — and
// through the tables, shard views and part views it hands out — is recorded
// by rec. The engine probes stores for optional capabilities by type
// assertion, so the wrapper exposes exactly the optional interfaces inner
// has: a decorated run must take the same code paths as an undecorated one.
func Wrap(inner kvstore.Store, rec *Recorder) kvstore.Store {
	base := &store{inner: inner, rec: rec}
	var w kvstore.Store = base
	switch {
	case has[kvstore.Transactional](inner):
		w = &gridStore{base}
	case has[kvstore.TraceBinder](inner):
		w = &netStore{base}
	case has[kvstore.Flusher](inner):
		w = &flushStore{base}
	}
	if Capabilities(w) != Capabilities(inner) {
		// A store with a capability set none of the wrappers mirrors would
		// silently run different engine paths when traced.
		panic(fmt.Sprintf("spispan: no wrapper mirrors %s's optional interfaces %v", inner.Name(), Capabilities(inner)))
	}
	return w
}

func has[T any](s kvstore.Store) bool {
	_, ok := s.(T)
	return ok
}

// Capabilities lists which optional kvstore interfaces s implements, in a
// fixed order: Flusher, Transactional, Replicated, Healer, FailureSensor,
// TraceBinder.
func Capabilities(s kvstore.Store) [6]bool {
	return [6]bool{
		has[kvstore.Flusher](s),
		has[kvstore.Transactional](s),
		has[kvstore.Replicated](s),
		has[kvstore.Healer](s),
		has[kvstore.FailureSensor](s),
		has[kvstore.TraceBinder](s),
	}
}

// store decorates a store with no optional capability (memstore).
type store struct {
	inner kvstore.Store
	rec   *Recorder
}

func (s *store) Name() string      { return s.inner.Name() }
func (s *store) DefaultParts() int { return s.inner.DefaultParts() }
func (s *store) Tables() []string  { return s.inner.Tables() }
func (s *store) Close() error      { return s.inner.Close() }

func (s *store) CreateTable(name string, opts ...kvstore.TableOption) (kvstore.Table, error) {
	a := s.rec.start(LayerStore, OpAdmin, 0)
	t, err := s.inner.CreateTable(name, opts...)
	a.end(err)
	if err != nil {
		return nil, err
	}
	return &table{inner: t, rec: s.rec}, nil
}

func (s *store) LookupTable(name string) (kvstore.Table, bool) {
	a := s.rec.start(LayerStore, OpAdmin, 0)
	t, found := s.inner.LookupTable(name)
	a.end(nil)
	if !found {
		return nil, false
	}
	return &table{inner: t, rec: s.rec}, true
}

func (s *store) DropTable(name string) error {
	a := s.rec.start(LayerStore, OpAdmin, 0)
	err := s.inner.DropTable(name)
	a.end(err)
	return err
}

func (s *store) RunAgent(tableName string, part int, agent kvstore.Agent) (any, error) {
	return s.dispatch(agent, func(ag kvstore.Agent) (any, error) {
		return s.inner.RunAgent(tableName, part, ag)
	})
}

// dispatch records a dispatch span around run and a body span, with a
// recording shard view, around the agent the store calls back.
func (s *store) dispatch(agent kvstore.Agent, run func(kvstore.Agent) (any, error)) (any, error) {
	a := s.rec.start(LayerStore, OpAgent, 0)
	if a.off() {
		return run(agent)
	}
	res, err := run(s.rec.body(agent, a.id))
	a.end(err)
	return res, err
}

// body wraps an agent so its run is a LayerEngine span under the dispatch
// span parent, and the views it opens record under that body.
func (r *Recorder) body(agent kvstore.Agent, parent int32) kvstore.Agent {
	return func(sv kvstore.ShardView) (any, error) {
		b := r.start(LayerEngine, OpBody, parent)
		if b.off() {
			return agent(sv)
		}
		res, err := agent(&shardView{inner: sv, rec: r, parent: b.id})
		b.end(err)
		return res, err
	}
}

func (s *store) admin(fn func() error) error {
	a := s.rec.start(LayerStore, OpAdmin, 0)
	err := fn()
	a.end(err)
	return err
}

// flushStore mirrors a store that buffers writes (diskstore).
type flushStore struct{ *store }

func (s *flushStore) Flush() error { return s.admin(s.inner.(kvstore.Flusher).Flush) }

// netStore mirrors a transport client (netstore).
type netStore struct{ *store }

func (s *netStore) Heal(table string) error {
	return s.admin(func() error { return s.inner.(kvstore.Healer).Heal(table) })
}
func (s *netStore) Failovers() int64    { return s.inner.(kvstore.FailureSensor).Failovers() }
func (s *netStore) BindTrace(id uint64) { s.inner.(kvstore.TraceBinder).BindTrace(id) }

// gridStore mirrors a replicated, transactional store (gridstore).
type gridStore struct{ *store }

func (s *gridStore) RunTransaction(tableName string, part int, agent kvstore.Agent) (any, error) {
	return s.dispatch(agent, func(ag kvstore.Agent) (any, error) {
		return s.inner.(kvstore.Transactional).RunTransaction(tableName, part, ag)
	})
}
func (s *gridStore) Replicas() int { return s.inner.(kvstore.Replicated).Replicas() }
func (s *gridStore) FailPrimary(table string, part int) error {
	return s.inner.(kvstore.Replicated).FailPrimary(table, part)
}
func (s *gridStore) Heal(table string) error {
	return s.admin(func() error { return s.inner.(kvstore.Healer).Heal(table) })
}
func (s *gridStore) Failovers() int64 { return s.inner.(kvstore.FailureSensor).Failovers() }

// table decorates a table handle.
type table struct {
	inner kvstore.Table
	rec   *Recorder
}

func (t *table) Name() string       { return t.inner.Name() }
func (t *table) Parts() int         { return t.inner.Parts() }
func (t *table) Ubiquitous() bool   { return t.inner.Ubiquitous() }
func (t *table) PartOf(key any) int { return t.inner.PartOf(key) }

func (t *table) Get(key any) (any, bool, error) {
	a := t.rec.start(LayerStore, OpGet, 0)
	v, found, err := t.inner.Get(key)
	a.end(err)
	return v, found, err
}

func (t *table) Put(key, value any) error {
	a := t.rec.start(LayerStore, OpPut, 0)
	err := t.inner.Put(key, value)
	a.end(err)
	if !a.off() {
		t.rec.sample(value)
	}
	return err
}

func (t *table) Delete(key any) error {
	a := t.rec.start(LayerStore, OpDelete, 0)
	err := t.inner.Delete(key)
	a.end(err)
	return err
}

func (t *table) Size() (int, error) {
	a := t.rec.start(LayerStore, OpEnumerate, 0)
	n, err := t.inner.Size()
	a.end(err)
	return n, err
}

func (t *table) EnumerateParts(pc kvstore.PartConsumer) (any, error) {
	a := t.rec.start(LayerStore, OpAgent, 0)
	if a.off() {
		return t.inner.EnumerateParts(pc)
	}
	res, err := t.inner.EnumerateParts(partConsumer{inner: pc, rec: t.rec, parent: a.id})
	a.end(err)
	return res, err
}

// EnumeratePairs hands the consumer raw pairs and no view, so the consumer
// needs no wrapper and the whole call is the store's.
func (t *table) EnumeratePairs(pc kvstore.PairConsumer) (any, error) {
	a := t.rec.start(LayerStore, OpEnumerate, 0)
	res, err := t.inner.EnumeratePairs(pc)
	a.end(err)
	return res, err
}

type partConsumer struct {
	inner  kvstore.PartConsumer
	rec    *Recorder
	parent int32
}

func (pc partConsumer) ProcessPart(sv kvstore.ShardView) (any, error) {
	return pc.rec.body(func(sv kvstore.ShardView) (any, error) { return pc.inner.ProcessPart(sv) }, pc.parent)(sv)
}

func (pc partConsumer) Combine(a, b any) (any, error) { return pc.inner.Combine(a, b) }

// shardView hands out recording part views; parent is the body span they
// were opened in.
type shardView struct {
	inner  kvstore.ShardView
	rec    *Recorder
	parent int32
}

func (sv *shardView) Part() int { return sv.inner.Part() }

func (sv *shardView) View(tableName string) (kvstore.PartView, error) {
	v, err := sv.inner.View(tableName)
	if err != nil {
		return nil, err
	}
	return &partView{inner: v, rec: sv.rec, parent: sv.parent}, nil
}

type partView struct {
	inner  kvstore.PartView
	rec    *Recorder
	parent int32
}

func (v *partView) Table() string { return v.inner.Table() }
func (v *partView) Part() int     { return v.inner.Part() }

func (v *partView) Get(key any) (any, bool, error) {
	a := v.rec.start(LayerStore, OpGet, v.parent)
	val, found, err := v.inner.Get(key)
	a.end(err)
	return val, found, err
}

func (v *partView) Put(key, value any) error {
	a := v.rec.start(LayerStore, OpPut, v.parent)
	err := v.inner.Put(key, value)
	a.end(err)
	return err
}

func (v *partView) Delete(key any) error {
	a := v.rec.start(LayerStore, OpDelete, v.parent)
	err := v.inner.Delete(key)
	a.end(err)
	return err
}

func (v *partView) Len() (int, error) {
	a := v.rec.start(LayerStore, OpEnumerate, v.parent)
	n, err := v.inner.Len()
	a.end(err)
	return n, err
}

func (v *partView) Enumerate(fn kvstore.PairFunc) error {
	a := v.rec.start(LayerStore, OpEnumerate, v.parent)
	err := v.inner.Enumerate(fn)
	a.end(err)
	return err
}

func (v *partView) EnumerateOrdered(fn kvstore.PairFunc) error {
	a := v.rec.start(LayerStore, OpEnumerate, v.parent)
	err := v.inner.EnumerateOrdered(fn)
	a.end(err)
	return err
}
