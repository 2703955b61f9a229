package kvstore

import (
	"errors"
	"fmt"
	"sync"
)

// OpenOrCreate looks a table up and creates it with opts on a miss. Another
// client may create it between the two calls; its ErrTableExists means the
// table is there now, so look it up again. On a store that keeps tables
// across restarts (diskstore), creating a table reopens what it holds.
// Lookup comes first because most callers find their tables present.
func OpenOrCreate(store Store, name string, opts ...TableOption) (Table, error) {
	if t, ok := store.LookupTable(name); ok {
		return t, nil
	}
	t, err := store.CreateTable(name, opts...)
	if errors.Is(err, ErrTableExists) {
		if t, ok := store.LookupTable(name); ok {
			return t, nil
		}
	}
	if err != nil {
		return nil, fmt.Errorf("kvstore: create table %q: %w", name, err)
	}
	return t, nil
}

// PartConsumerFuncs adapts plain functions to the PartConsumer interface.
type PartConsumerFuncs struct {
	ProcessFn func(sv ShardView) (any, error)
	CombineFn func(a, b any) (any, error)
}

var _ PartConsumer = PartConsumerFuncs{}

// ProcessPart implements PartConsumer.
func (p PartConsumerFuncs) ProcessPart(sv ShardView) (any, error) {
	if p.ProcessFn == nil {
		return nil, nil
	}
	return p.ProcessFn(sv)
}

// Combine implements PartConsumer.
func (p PartConsumerFuncs) Combine(a, b any) (any, error) {
	if p.CombineFn == nil {
		return nil, nil
	}
	return p.CombineFn(a, b)
}

// PairConsumerFuncs adapts plain functions to the PairConsumer interface.
// Nil functions default to no-ops (and nil results).
type PairConsumerFuncs struct {
	SetupFn   func(part int) error
	ConsumeFn func(key, value any) (bool, error)
	FinishFn  func(part int) (any, error)
	CombineFn func(a, b any) (any, error)
}

var _ PairConsumer = PairConsumerFuncs{}

// SetupPart implements PairConsumer.
func (p PairConsumerFuncs) SetupPart(part int) error {
	if p.SetupFn == nil {
		return nil
	}
	return p.SetupFn(part)
}

// ConsumePair implements PairConsumer.
func (p PairConsumerFuncs) ConsumePair(key, value any) (bool, error) {
	if p.ConsumeFn == nil {
		return false, nil
	}
	return p.ConsumeFn(key, value)
}

// FinishPart implements PairConsumer.
func (p PairConsumerFuncs) FinishPart(part int) (any, error) {
	if p.FinishFn == nil {
		return nil, nil
	}
	return p.FinishFn(part)
}

// Combine implements PairConsumer.
func (p PairConsumerFuncs) Combine(a, b any) (any, error) {
	if p.CombineFn == nil {
		return nil, nil
	}
	return p.CombineFn(a, b)
}

// Dump copies an entire table into a map. Keys must be comparable. Intended
// for tests, examples, and result export — not hot paths.
func Dump(t Table) (map[any]any, error) {
	out := make(map[any]any)
	if err := EnumerateAll(t, func(k, v any) (bool, error) {
		out[k] = v
		return false, nil
	}); err != nil {
		return nil, fmt.Errorf("kvstore: dump %s: %w", t.Name(), err)
	}
	return out, nil
}

// EnumerateAll visits every pair of a table through a single callback,
// serialized (the callback never runs concurrently with itself).
func EnumerateAll(t Table, fn func(key, value any) (stop bool, err error)) error {
	var mu sync.Mutex
	_, err := t.EnumeratePairs(PairConsumerFuncs{
		ConsumeFn: func(k, v any) (bool, error) {
			mu.Lock()
			defer mu.Unlock()
			return fn(k, v)
		},
	})
	return err
}
