package diskstore

import (
	"fmt"
	"time"

	"ripple/internal/codec"
	"ripple/internal/kvstore"
	"ripple/internal/kvstore/tablecore"
)

// table is a diskstore table handle. A ubiquitous diskstore table is simply a
// single-part table (every read hits the same log); the "replicated
// everywhere" contract degrades gracefully in a single-node store.
type table struct {
	store      *Store
	name       string
	group      *group
	ubiquitous bool
}

var _ kvstore.Table = (*table)(nil)

// Name implements kvstore.Table.
func (t *table) Name() string { return t.name }

// Parts implements kvstore.Table.
func (t *table) Parts() int {
	if t.ubiquitous {
		return 1
	}
	return t.group.parts
}

// Ubiquitous implements kvstore.Table.
func (t *table) Ubiquitous() bool { return t.ubiquitous }

// PartOf implements kvstore.Table.
func (t *table) PartOf(key any) int {
	if t.ubiquitous {
		return 0
	}
	return codec.PartOf(t.group.hasher, key, t.group.parts)
}

func (t *table) log(part int) (*shard, *partLog, error) {
	sh := t.group.shards[part]
	sh.mu.Lock()
	pl := sh.logs[t.name]
	if pl == nil {
		sh.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %q", kvstore.ErrNoTable, t.name)
	}
	return sh, pl, nil // caller must sh.mu.Unlock()
}

// Get implements kvstore.Table.
func (t *table) Get(key any) (any, bool, error) {
	t.store.metrics.AddStoreGets(1)
	kbuf, err := codec.Encode(key)
	if err != nil {
		return nil, false, err
	}
	sh, pl, err := t.log(t.PartOf(key))
	if err != nil {
		return nil, false, err
	}
	defer sh.mu.Unlock()
	return pl.getLocked(key, kbuf)
}

// Put implements kvstore.Table.
func (t *table) Put(key, value any) error {
	t.store.metrics.AddStorePuts(1)
	start := time.Now()
	kbuf, err := codec.Encode(key)
	if err != nil {
		return err
	}
	vbuf, err := codec.Encode(value)
	if err != nil {
		return err
	}
	sh, pl, err := t.log(t.PartOf(key))
	if err != nil {
		return err
	}
	if err := pl.applyLocked(opPut, key, kbuf, vbuf); err != nil {
		sh.mu.Unlock()
		return err
	}
	sh.mu.Unlock()
	// The durable ack (when configured) happens outside the shard lock so
	// concurrent writers can pile into one group commit.
	if err := t.store.ackDurable(pl); err != nil {
		return err
	}
	t.store.metrics.StoreWrites().ObserveDuration(time.Since(start))
	return nil
}

// Delete implements kvstore.Table.
func (t *table) Delete(key any) error {
	t.store.metrics.AddStoreDeletes(1)
	start := time.Now()
	kbuf, err := codec.Encode(key)
	if err != nil {
		return err
	}
	sh, pl, err := t.log(t.PartOf(key))
	if err != nil {
		return err
	}
	if err := pl.applyLocked(opDelete, key, kbuf, nil); err != nil {
		sh.mu.Unlock()
		return err
	}
	sh.mu.Unlock()
	if err := t.store.ackDurable(pl); err != nil {
		return err
	}
	t.store.metrics.StoreWrites().ObserveDuration(time.Since(start))
	return nil
}

// Size implements kvstore.Table.
func (t *table) Size() (int, error) {
	total := 0
	for p := 0; p < t.Parts(); p++ {
		sh, pl, err := t.log(p)
		if err != nil {
			return 0, err
		}
		keys, err := pl.liveKeysLocked()
		sh.mu.Unlock()
		if err != nil {
			return 0, err
		}
		total += len(keys)
	}
	return total, nil
}

// EnumerateParts implements kvstore.Table.
func (t *table) EnumerateParts(pc kvstore.PartConsumer) (any, error) {
	return tablecore.ForEachPart(t.Parts(), pc.Combine, func(p int) (any, error) {
		return pc.ProcessPart(&shardView{store: t.store, group: t.group, shard: t.group.shards[p]})
	})
}

// EnumeratePairs implements kvstore.Table. kvstore.Ordered is not kept: a
// part's pairs come in memtable/run order.
func (t *table) EnumeratePairs(pc kvstore.PairConsumer) (any, error) {
	return t.EnumerateParts(tablecore.PairsByPart(t.name, false, pc))
}

// shardView is the agent window for diskstore.
type shardView struct {
	store *Store
	group *group
	shard *shard
}

var _ kvstore.ShardView = (*shardView)(nil)

// Part implements kvstore.ShardView.
func (sv *shardView) Part() int { return sv.shard.part }

// View implements kvstore.ShardView.
func (sv *shardView) View(tableName string) (kvstore.PartView, error) {
	sv.store.mu.Lock()
	t, ok := sv.store.tables[tableName]
	sv.store.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", kvstore.ErrNoTable, tableName)
	}
	if t.ubiquitous {
		return &partView{store: sv.store, table: t, shard: t.group.shards[0]}, nil
	}
	if !tablecore.CoPlaced(t.group, sv.group) {
		return nil, fmt.Errorf("%w: %q", kvstore.ErrNotCoPlaced, tableName)
	}
	return &partView{store: sv.store, table: t, shard: t.group.shards[sv.shard.part]}, nil
}

// partView is local access to one disk part.
type partView struct {
	store *Store
	table *table
	shard *shard
}

var _ kvstore.PartView = (*partView)(nil)

// Table implements kvstore.PartView.
func (pv *partView) Table() string { return pv.table.name }

// Part implements kvstore.PartView.
func (pv *partView) Part() int { return pv.shard.part }

func (pv *partView) log() (*partLog, error) {
	pl := pv.shard.logs[pv.table.name]
	if pl == nil {
		return nil, fmt.Errorf("%w: %q", kvstore.ErrNoTable, pv.table.name)
	}
	return pl, nil
}

// Get implements kvstore.PartView.
func (pv *partView) Get(key any) (any, bool, error) {
	pv.store.metrics.AddStoreGets(1)
	kbuf, err := codec.Encode(key)
	if err != nil {
		return nil, false, err
	}
	pv.shard.mu.Lock()
	defer pv.shard.mu.Unlock()
	pl, err := pv.log()
	if err != nil {
		return nil, false, err
	}
	return pl.getLocked(key, kbuf)
}

// Put implements kvstore.PartView.
func (pv *partView) Put(key, value any) error {
	pv.store.metrics.AddStorePuts(1)
	start := time.Now()
	kbuf, err := codec.Encode(key)
	if err != nil {
		return err
	}
	vbuf, err := codec.Encode(value)
	if err != nil {
		return err
	}
	pv.shard.mu.Lock()
	pl, err := pv.log()
	if err != nil {
		pv.shard.mu.Unlock()
		return err
	}
	if err := pl.applyLocked(opPut, key, kbuf, vbuf); err != nil {
		pv.shard.mu.Unlock()
		return err
	}
	pv.shard.mu.Unlock()
	if err := pv.store.ackDurable(pl); err != nil {
		return err
	}
	pv.store.metrics.StoreWrites().ObserveDuration(time.Since(start))
	return nil
}

// Delete implements kvstore.PartView.
func (pv *partView) Delete(key any) error {
	pv.store.metrics.AddStoreDeletes(1)
	kbuf, err := codec.Encode(key)
	if err != nil {
		return err
	}
	pv.shard.mu.Lock()
	pl, err := pv.log()
	if err != nil {
		pv.shard.mu.Unlock()
		return err
	}
	if err := pl.applyLocked(opDelete, key, kbuf, nil); err != nil {
		pv.shard.mu.Unlock()
		return err
	}
	pv.shard.mu.Unlock()
	return pv.store.ackDurable(pl)
}

// Len implements kvstore.PartView.
func (pv *partView) Len() (int, error) {
	pv.shard.mu.Lock()
	defer pv.shard.mu.Unlock()
	pl, err := pv.log()
	if err != nil {
		return 0, err
	}
	keys, err := pl.liveKeysLocked()
	if err != nil {
		return 0, err
	}
	return len(keys), nil
}

// Enumerate implements kvstore.PartView.
func (pv *partView) Enumerate(fn kvstore.PairFunc) error {
	return pv.enumerate(fn, false)
}

// EnumerateOrdered implements kvstore.PartView.
func (pv *partView) EnumerateOrdered(fn kvstore.PairFunc) error {
	return pv.enumerate(fn, true)
}

func (pv *partView) enumerate(fn kvstore.PairFunc, ordered bool) error {
	pv.shard.mu.Lock()
	pl, err := pv.log()
	if err != nil {
		pv.shard.mu.Unlock()
		return err
	}
	keys, err := pl.liveKeysLocked()
	if err != nil {
		pv.shard.mu.Unlock()
		return err
	}
	pv.shard.mu.Unlock()
	if ordered {
		sortKeysStable(keys)
	}
	for _, k := range keys {
		v, ok, err := pv.Get(k)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		stop, err := fn(k, v)
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}
