package tablecore

import (
	"fmt"
	"sync"

	"ripple/internal/codec"
	"ripple/internal/kvstore"
)

// table is the handle to one table. A partitioned table routes each
// operation to the part that owns the key and reaches it as a client; a
// ubiquitous table is one shared map.
type table struct {
	core    *Core
	name    string
	group   *Group
	ordered bool
	views   []kvstore.PartView // the backend's local view of each part; nil iff ubiquitous
	ubiq    *ubiqData          // non-nil iff ubiquitous
}

// ubiqData backs a ubiquitous table: a single logical part, readable locally
// from everywhere. In-process the replica set collapses to one map; reads do
// not marshal (the contract is that ubiquitous contents are broadcast data,
// quick to read).
type ubiqData struct {
	mu    sync.RWMutex
	items map[any]any
}

func (u *ubiqData) get(key any) (any, bool, error) {
	u.mu.RLock()
	defer u.mu.RUnlock()
	v, ok := u.items[key]
	return v, ok, nil
}

func (u *ubiqData) put(key, value any) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.items[key] = value
	return nil
}

func (u *ubiqData) delete(key any) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	delete(u.items, key)
	return nil
}

func (u *ubiqData) len() (int, error) {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return len(u.items), nil
}

func (t *table) Name() string { return t.name }

func (t *table) Parts() int {
	if t.ubiq != nil {
		return 1
	}
	return len(t.group.Parts)
}

func (t *table) Ubiquitous() bool { return t.ubiq != nil }

func (t *table) PartOf(key any) int {
	if t.ubiq != nil {
		return 0
	}
	return codec.PartOf(t.group.hasher, key, len(t.group.Parts))
}

// owner returns the part that owns key and the local view of it. Table
// operations run against that view inside Part.Client — the way a request
// from outside the part reaches it. The views count the operation, so a
// partitioned table's own methods do not count it again.
func (t *table) owner(key any) (Part, kvstore.PartView) {
	p := t.PartOf(key)
	return t.group.Parts[p], t.views[p]
}

// Get implements kvstore.Table: the result crosses the partition boundary.
func (t *table) Get(key any) (val any, ok bool, err error) {
	if t.ubiq != nil {
		t.core.cfg.Metrics.AddStoreGets(1)
		return t.ubiq.get(key)
	}
	part, view := t.owner(key)
	derr := part.Client(func() {
		var v any
		if v, ok, err = view.Get(key); ok && err == nil {
			val, err = t.core.roundTrip(v)
			ok = err == nil
		}
	})
	if derr != nil {
		return nil, false, derr
	}
	return val, ok, err
}

// Put implements kvstore.Table: the value crosses the partition boundary.
func (t *table) Put(key, value any) error {
	if t.ubiq != nil {
		t.core.cfg.Metrics.AddStorePuts(1)
		v, err := t.core.roundTrip(value)
		if err != nil {
			return err
		}
		return t.ubiq.put(key, v)
	}
	part, view := t.owner(key)
	var err error
	derr := part.Client(func() {
		var v any
		if v, err = t.core.roundTrip(value); err == nil {
			err = view.Put(key, v)
		}
	})
	if derr != nil {
		return derr
	}
	return err
}

// Delete implements kvstore.Table.
func (t *table) Delete(key any) error {
	if t.ubiq != nil {
		t.core.cfg.Metrics.AddStoreDeletes(1)
		return t.ubiq.delete(key)
	}
	part, view := t.owner(key)
	var err error
	derr := part.Client(func() { err = view.Delete(key) })
	if derr != nil {
		return derr
	}
	return err
}

// Size implements kvstore.Table.
func (t *table) Size() (int, error) {
	if t.ubiq != nil {
		return t.ubiq.len()
	}
	total := 0
	for _, view := range t.views {
		n, err := view.Len()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// EnumerateParts implements kvstore.Table: ProcessPart runs next to every
// part in parallel; results are folded in part order.
func (t *table) EnumerateParts(pc kvstore.PartConsumer) (any, error) {
	if t.ubiq != nil {
		return pc.ProcessPart(ubiqShardView{t})
	}
	return ForEachPart(len(t.group.Parts), pc.Combine, func(p int) (any, error) {
		return t.core.runAt(t.group, p, pc.ProcessPart)
	})
}

// EnumeratePairs implements kvstore.Table. A ubiquitous table's pairs come in
// key order whether or not it was created Ordered.
func (t *table) EnumeratePairs(pc kvstore.PairConsumer) (any, error) {
	return t.EnumerateParts(PairsByPart(t.name, t.ordered || t.ubiq != nil, pc))
}

// ubiqShardView is the single "part" EnumerateParts over a ubiquitous table
// processes: it sees that table only.
type ubiqShardView struct{ table *table }

func (sv ubiqShardView) Part() int { return 0 }

func (sv ubiqShardView) View(name string) (kvstore.PartView, error) {
	if name != sv.table.name {
		return nil, fmt.Errorf("%w: %q from ubiquitous agent", kvstore.ErrNotCoPlaced, name)
	}
	return &ubiqPartView{table: sv.table}, nil
}

// ubiqPartView is the local replica view of a ubiquitous table, as seen from
// part `part` of whatever group the agent runs in. Reads do not marshal and
// writes update the shared replica.
type ubiqPartView struct {
	table *table
	part  int
}

func (uv *ubiqPartView) Table() string { return uv.table.name }
func (uv *ubiqPartView) Part() int     { return uv.part }

func (uv *ubiqPartView) Get(key any) (any, bool, error) { return uv.table.ubiq.get(key) }
func (uv *ubiqPartView) Put(key, value any) error       { return uv.table.ubiq.put(key, value) }
func (uv *ubiqPartView) Delete(key any) error           { return uv.table.ubiq.delete(key) }
func (uv *ubiqPartView) Len() (int, error)              { return uv.table.ubiq.len() }

func (uv *ubiqPartView) Enumerate(fn kvstore.PairFunc) error { return uv.EnumerateOrdered(fn) }

// EnumerateOrdered visits a snapshot, so the callback may write to the table.
func (uv *ubiqPartView) EnumerateOrdered(fn kvstore.PairFunc) error {
	u := uv.table.ubiq
	u.mu.RLock()
	items := make(map[any]any, len(u.items))
	for k, v := range u.items {
		items[k] = v
	}
	u.mu.RUnlock()
	return Visit(Keys(items, true), func(k any) (any, bool, error) { return items[k], true, nil }, fn)
}
