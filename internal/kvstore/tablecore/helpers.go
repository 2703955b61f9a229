package tablecore

import (
	"sort"
	"sync"

	"ripple/internal/codec"
	"ripple/internal/kvstore"
)

// The functions in this file are the pieces of a partitioned store that do
// not depend on how a part is stored. netstore, which is not built on Core,
// uses them too, so enumeration order has one definition across every store.

// ForEachPart runs process once per part, in parallel, and folds the results
// left to right in part order with combine — so the combined result is the
// same on every run, whatever order the parts finish in. The first error in
// part order wins.
func ForEachPart(parts int, combine func(a, b any) (any, error), process func(part int) (any, error)) (any, error) {
	results := make([]any, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			results[p], errs[p] = process(p)
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	combined := results[0]
	for _, r := range results[1:] {
		var err error
		if combined, err = combine(combined, r); err != nil {
			return nil, err
		}
	}
	return combined, nil
}

// PairsByPart adapts a PairConsumer to run over one part at a time as a
// PartConsumer: Table.EnumeratePairs is EnumerateParts of the result. With
// ordered set, a part's pairs are visited in codec.CompareKeys order.
func PairsByPart(table string, ordered bool, pc kvstore.PairConsumer) kvstore.PartConsumer {
	return pairsByPart{table: table, ordered: ordered, pc: pc}
}

type pairsByPart struct {
	table   string
	ordered bool
	pc      kvstore.PairConsumer
}

func (a pairsByPart) ProcessPart(sv kvstore.ShardView) (any, error) {
	view, err := sv.View(a.table)
	if err != nil {
		return nil, err
	}
	if err := a.pc.SetupPart(sv.Part()); err != nil {
		return nil, err
	}
	enumerate := view.Enumerate
	if a.ordered {
		enumerate = view.EnumerateOrdered
	}
	if err := enumerate(a.pc.ConsumePair); err != nil {
		return nil, err
	}
	return a.pc.FinishPart(sv.Part())
}

func (a pairsByPart) Combine(x, y any) (any, error) { return a.pc.Combine(x, y) }

// Keys snapshots a part's keys, in codec.CompareKeys order when ordered.
func Keys[V any](items map[any]V, ordered bool) []any {
	keys := make([]any, 0, len(items))
	for k := range items {
		keys = append(keys, k)
	}
	if ordered {
		sort.Slice(keys, func(i, j int) bool { return codec.CompareKeys(keys[i], keys[j]) < 0 })
	}
	return keys
}

// Visit walks a key snapshot, reading each key's current value through get,
// until fn stops it. Keys deleted since the snapshot are skipped, and get
// takes its own locks, so fn may write to the part it is enumerating.
func Visit(keys []any, get func(key any) (any, bool, error), fn kvstore.PairFunc) error {
	for _, k := range keys {
		v, ok, err := get(k)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		stop, err := fn(k, v)
		if err != nil || stop {
			return err
		}
	}
	return nil
}
