// Package tableops provides collocated bulk operations over Ripple key/value
// tables — the "other uses of the K/V store" the narrow SPI opens up (paper
// §III-A), including the co-placement join the paper contrasts with HaLoop's
// caching (§VI): because a store can guarantee consistent partitioning,
// joining two tables by key requires no data movement at all; every join
// probe is part-local mobile code.
//
// All operations run as agents adjacent to the data: the table-wide ones as
// PartConsumer agents, one per part in parallel, and InParts, the one path
// bulk writes outside a step take, as one agent per touched part in turn.
package tableops

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"ripple/internal/kvstore"
)

// InParts runs fn once per part in keys, in ascending part order, as one
// agent at that part of table at, with the agent's view of table and the
// part's keys. table is at itself or one every part sees (a ubiquitous
// table, which takes no agents of its own). A view that is a
// kvstore.ReadAheader is told the keys first, so the part's reads cross the
// store boundary together; a visit that only writes pays nothing for the
// hint. It stops at the first error.
func InParts(store kvstore.Store, at, table string, keys map[int][]any, fn func(pv kvstore.PartView, part int, keys []any) error) error {
	for _, p := range slices.Sorted(maps.Keys(keys)) {
		if _, err := store.RunAgent(at, p, func(sv kvstore.ShardView) (any, error) {
			pv, err := sv.View(table)
			if err != nil {
				return nil, err
			}
			if ra, ok := pv.(kvstore.ReadAheader); ok {
				ra.ReadAhead(keys[p])
			}
			return nil, fn(pv, p, keys[p])
		}); err != nil {
			return err
		}
	}
	return nil
}

// Load creates table with the given part count (the store's default when it
// is 0) and writes value(k) under each key k in 0..n-1 through InParts. Part
// views may keep a value as it is, so value must return memory its caller
// will not change.
func Load(store kvstore.Store, table string, parts, n int, value func(k int) any) (kvstore.Table, error) {
	tab, err := store.CreateTable(table, kvstore.WithParts(parts))
	if err != nil {
		return nil, err
	}
	keys := map[int][]any{}
	for k := 0; k < n; k++ {
		keys[tab.PartOf(k)] = append(keys[tab.PartOf(k)], k)
	}
	err = InParts(store, table, table, keys, func(pv kvstore.PartView, _ int, keys []any) error {
		for _, k := range keys {
			if err := pv.Put(k, value(k.(int))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tab, nil
}

// ErrNotCoPlaced is returned when a join's tables are not consistently
// partitioned.
var ErrNotCoPlaced = errors.New("tableops: tables are not co-placed")

// Filter copies the pairs satisfying pred from src into dst. dst must be
// co-placed with src (create it with ConsistentWith) so every write stays
// part-local.
func Filter(store kvstore.Store, src, dst string, pred func(key, value any) bool) (int, error) {
	return perPartPipe(store, src, dst, func(k, v any, put func(k, v any) error) error {
		if pred(k, v) {
			return put(k, v)
		}
		return nil
	})
}

// MapValues copies src into dst, transforming every value.
func MapValues(store kvstore.Store, src, dst string, f func(key, value any) any) (int, error) {
	return perPartPipe(store, src, dst, func(k, v any, put func(k, v any) error) error {
		return put(k, f(k, v))
	})
}

// perPartPipe streams src's pairs through fn with a part-local writer into
// dst, returning the number of pairs written.
func perPartPipe(store kvstore.Store, src, dst string,
	fn func(k, v any, put func(k, v any) error) error) (int, error) {

	srcTab, ok := store.LookupTable(src)
	if !ok {
		return 0, fmt.Errorf("%w: %q", kvstore.ErrNoTable, src)
	}
	if _, ok := store.LookupTable(dst); !ok {
		return 0, fmt.Errorf("%w: %q", kvstore.ErrNoTable, dst)
	}
	res, err := srcTab.EnumerateParts(kvstore.PartConsumerFuncs{
		ProcessFn: func(sv kvstore.ShardView) (any, error) {
			srcView, err := sv.View(src)
			if err != nil {
				return nil, err
			}
			dstView, err := sv.View(dst)
			if err != nil {
				return nil, err
			}
			n := 0
			err = srcView.Enumerate(func(k, v any) (bool, error) {
				return false, fn(k, v, func(k2, v2 any) error {
					n++
					return dstView.Put(k2, v2)
				})
			})
			return n, err
		},
		CombineFn: func(a, b any) (any, error) { return a.(int) + b.(int), nil },
	})
	if err != nil {
		return 0, err
	}
	return res.(int), nil
}

// JoinPair is one co-placed join match.
type JoinPair struct {
	Key         any
	Left, Right any
}

// Join performs an inner equi-join of two co-placed tables by key, invoking
// each for every key present in both. All probes are part-local: the join
// moves no data between parts (assert it with a metrics.Collector — the
// marshalled-bytes counter stays flat). Returns the number of matches.
func Join(store kvstore.Store, left, right string, each func(p JoinPair) error) (int, error) {
	lt, ok := store.LookupTable(left)
	if !ok {
		return 0, fmt.Errorf("%w: %q", kvstore.ErrNoTable, left)
	}
	rt, ok := store.LookupTable(right)
	if !ok {
		return 0, fmt.Errorf("%w: %q", kvstore.ErrNoTable, right)
	}
	if lt.Parts() != rt.Parts() && !rt.Ubiquitous() {
		return 0, fmt.Errorf("%w: %q has %d parts, %q has %d",
			ErrNotCoPlaced, left, lt.Parts(), right, rt.Parts())
	}
	res, err := lt.EnumerateParts(kvstore.PartConsumerFuncs{
		ProcessFn: func(sv kvstore.ShardView) (any, error) {
			lv, err := sv.View(left)
			if err != nil {
				return nil, err
			}
			rv, err := sv.View(right)
			if err != nil {
				if errors.Is(err, kvstore.ErrNotCoPlaced) {
					return nil, fmt.Errorf("%w: %v", ErrNotCoPlaced, err)
				}
				return nil, err
			}
			n := 0
			err = lv.Enumerate(func(k, l any) (bool, error) {
				r, ok, err := rv.Get(k)
				if err != nil {
					return false, err
				}
				if !ok {
					return false, nil
				}
				n++
				return false, each(JoinPair{Key: k, Left: l, Right: r})
			})
			return n, err
		},
		CombineFn: func(a, b any) (any, error) { return a.(int) + b.(int), nil },
	})
	if err != nil {
		return 0, err
	}
	return res.(int), nil
}

// JoinInto materializes an inner join into a co-placed destination table,
// combining matched values with merge.
func JoinInto(store kvstore.Store, left, right, dst string,
	merge func(key, l, r any) any) (int, error) {

	if _, ok := store.LookupTable(dst); !ok {
		return 0, fmt.Errorf("%w: %q", kvstore.ErrNoTable, dst)
	}
	lt, _ := store.LookupTable(left)
	if lt == nil {
		return 0, fmt.Errorf("%w: %q", kvstore.ErrNoTable, left)
	}
	res, err := lt.EnumerateParts(kvstore.PartConsumerFuncs{
		ProcessFn: func(sv kvstore.ShardView) (any, error) {
			lv, err := sv.View(left)
			if err != nil {
				return nil, err
			}
			rv, err := sv.View(right)
			if err != nil {
				return nil, err
			}
			dv, err := sv.View(dst)
			if err != nil {
				return nil, err
			}
			n := 0
			err = lv.Enumerate(func(k, l any) (bool, error) {
				r, ok, err := rv.Get(k)
				if err != nil || !ok {
					return false, err
				}
				n++
				return false, dv.Put(k, merge(k, l, r))
			})
			return n, err
		},
		CombineFn: func(a, b any) (any, error) { return a.(int) + b.(int), nil },
	})
	if err != nil {
		return 0, err
	}
	return res.(int), nil
}

// Reduce folds every pair of a table into a single value, computing partial
// results part-locally and combining them.
func Reduce(store kvstore.Store, table string, zero any,
	fold func(acc any, key, value any) any, combine func(a, b any) any) (any, error) {

	t, ok := store.LookupTable(table)
	if !ok {
		return nil, fmt.Errorf("%w: %q", kvstore.ErrNoTable, table)
	}
	return t.EnumerateParts(kvstore.PartConsumerFuncs{
		ProcessFn: func(sv kvstore.ShardView) (any, error) {
			view, err := sv.View(table)
			if err != nil {
				return nil, err
			}
			acc := zero
			err = view.Enumerate(func(k, v any) (bool, error) {
				acc = fold(acc, k, v)
				return false, nil
			})
			return acc, err
		},
		CombineFn: func(a, b any) (any, error) { return combine(a, b), nil },
	})
}

// Count reports how many pairs satisfy pred.
func Count(store kvstore.Store, table string, pred func(key, value any) bool) (int, error) {
	res, err := Reduce(store, table, 0,
		func(acc any, k, v any) any {
			if pred == nil || pred(k, v) {
				return acc.(int) + 1
			}
			return acc
		},
		func(a, b any) any { return a.(int) + b.(int) })
	if err != nil {
		return 0, err
	}
	return res.(int), nil
}
