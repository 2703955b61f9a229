package tablecore

import (
	"fmt"
	"sync/atomic"

	"ripple/internal/codec"
	"ripple/internal/kvstore"
)

// table is the handle to one table. A partitioned table routes each
// operation to the part that owns the key and reaches it as a client; a
// ubiquitous table reads and writes its one part's view directly.
type table struct {
	core    *Core
	name    string
	group   *Group
	ordered bool
	ubiq    bool
	views   []kvstore.PartView // the backend's local view of each part
	dropped atomic.Bool        // set by DropTable
}

// gone is ErrNoTable once the table has been dropped, whether or not that
// stopped its group's parts, and nil before.
func (t *table) gone() error {
	if t.dropped.Load() {
		return fmt.Errorf("%w: %q", kvstore.ErrNoTable, t.name)
	}
	return nil
}

func (t *table) Name() string { return t.name }

func (t *table) Parts() int { return len(t.group.Parts) }

func (t *table) Ubiquitous() bool { return t.ubiq }

func (t *table) PartOf(key any) int {
	if t.ubiq {
		return 0
	}
	return codec.PartOf(codec.DefaultHasher{}, key, len(t.group.Parts))
}

// owner returns the part that owns key and the local view of it. Table
// operations run against that view inside Part.Client — the way a request
// from outside the part reaches it. The views count the operation, so the
// table's own methods do not count it again.
//
// A ubiquitous table is broadcast data, quick to read: its operations use the
// view on the caller's goroutine, and reads do not marshal.
func (t *table) owner(key any) (Part, kvstore.PartView) {
	p := t.PartOf(key)
	return t.group.Parts[p], t.views[p]
}

// Get implements kvstore.Table: the result crosses the partition boundary.
func (t *table) Get(key any) (val any, ok bool, err error) {
	if err := t.gone(); err != nil {
		return nil, false, err
	}
	part, view := t.owner(key)
	if t.ubiq {
		return view.Get(key)
	}
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
	if err := t.gone(); err != nil {
		return err
	}
	part, view := t.owner(key)
	if t.ubiq {
		return t.put(view, key, value)
	}
	var err error
	if derr := part.Client(func() { err = t.put(view, key, value) }); derr != nil {
		return derr
	}
	return err
}

func (t *table) put(view kvstore.PartView, key, value any) error {
	v, err := t.core.roundTrip(value)
	if err != nil {
		return err
	}
	return view.Put(key, v)
}

// Delete implements kvstore.Table.
func (t *table) Delete(key any) error {
	if err := t.gone(); err != nil {
		return err
	}
	part, view := t.owner(key)
	if t.ubiq {
		return view.Delete(key)
	}
	var err error
	if derr := part.Client(func() { err = view.Delete(key) }); derr != nil {
		return derr
	}
	return err
}

// Size implements kvstore.Table.
func (t *table) Size() (int, error) {
	if err := t.gone(); err != nil {
		return 0, err
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
	if err := t.gone(); err != nil {
		return nil, err
	}
	return ForEachPart(len(t.group.Parts), pc.Combine, func(p int) (any, error) {
		return t.core.runAt(t.group, p, pc.ProcessPart)
	})
}

// EnumeratePairs implements kvstore.Table. A ubiquitous table's pairs come in
// key order whether or not it was created Ordered.
func (t *table) EnumeratePairs(pc kvstore.PairConsumer) (any, error) {
	return t.EnumerateParts(PairsByPart(t.name, t.ordered || t.ubiq, pc))
}
