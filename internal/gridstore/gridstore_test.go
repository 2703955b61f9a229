package gridstore

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"ripple/internal/kvstore"
)

func newStore(t *testing.T, opts ...Option) *Store {
	t.Helper()
	s := New(opts...)
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestBasicOps(t *testing.T) {
	s := newStore(t)
	tab, err := s.CreateTable("t", kvstore.WithParts(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Put("k", 123); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tab.Get("k")
	if err != nil || !ok || v != 123 {
		t.Fatalf("Get = %v %v %v", v, ok, err)
	}
	if err := tab.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tab.Get("k"); ok {
		t.Error("value visible after delete")
	}
}

func TestDefaultPartsIsTen(t *testing.T) {
	s := newStore(t)
	tab, _ := s.CreateTable("t")
	if tab.Parts() != 10 {
		t.Errorf("default parts = %d, want 10 (the paper's container count)", tab.Parts())
	}
}

func TestTransactionCommit(t *testing.T) {
	s := newStore(t)
	tab, _ := s.CreateTable("t", kvstore.WithParts(2))
	key := 0
	for tab.PartOf(key) != 1 {
		key++
	}
	res, err := s.RunTransaction("t", 1, func(sv kvstore.ShardView) (any, error) {
		view, err := sv.View("t")
		if err != nil {
			return nil, err
		}
		if err := view.Put(key, "committed"); err != nil {
			return nil, err
		}
		// Read-your-writes inside the transaction.
		v, ok, err := view.Get(key)
		if err != nil || !ok || v != "committed" {
			return nil, fmt.Errorf("read-your-writes failed: %v %v %v", v, ok, err)
		}
		return "done", nil
	})
	if err != nil || res != "done" {
		t.Fatalf("RunTransaction = %v, %v", res, err)
	}
	v, ok, _ := tab.Get(key)
	if !ok || v != "committed" {
		t.Errorf("after commit Get = %v, %v", v, ok)
	}
}

func TestTransactionRollbackOnError(t *testing.T) {
	s := newStore(t)
	tab, _ := s.CreateTable("t", kvstore.WithParts(1))
	_ = tab.Put("a", 1)
	boom := errors.New("boom")
	_, err := s.RunTransaction("t", 0, func(sv kvstore.ShardView) (any, error) {
		view, _ := sv.View("t")
		_ = view.Put("a", 2)
		_ = view.Put("b", 3)
		_ = view.Delete("a")
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if v, _, _ := tab.Get("a"); v != 1 {
		t.Errorf("a = %v after rollback, want 1", v)
	}
	if _, ok, _ := tab.Get("b"); ok {
		t.Error("b visible after rollback")
	}
}

func TestTransactionAtomicAcrossTables(t *testing.T) {
	s := newStore(t)
	_, _ = s.CreateTable("x", kvstore.WithParts(1))
	_, _ = s.CreateTable("y", kvstore.ConsistentWith("x"))
	_, err := s.RunTransaction("x", 0, func(sv kvstore.ShardView) (any, error) {
		vx, _ := sv.View("x")
		vy, _ := sv.View("y")
		_ = vx.Put(1, "in-x")
		_ = vy.Put(1, "in-y")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	xt, _ := s.LookupTable("x")
	yt, _ := s.LookupTable("y")
	if v, _, _ := xt.Get(1); v != "in-x" {
		t.Errorf("x[1] = %v", v)
	}
	if v, _, _ := yt.Get(1); v != "in-y" {
		t.Errorf("y[1] = %v", v)
	}
}

func TestTransactionDeleteVisibility(t *testing.T) {
	s := newStore(t)
	tab, _ := s.CreateTable("t", kvstore.WithParts(1))
	_ = tab.Put("k", "v")
	_, err := s.RunTransaction("t", 0, func(sv kvstore.ShardView) (any, error) {
		view, _ := sv.View("t")
		_ = view.Delete("k")
		if _, ok, _ := view.Get("k"); ok {
			t.Error("deleted key visible inside transaction")
		}
		n, _ := view.Len()
		if n != 0 {
			t.Errorf("Len inside tx = %d, want 0", n)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tab.Get("k"); ok {
		t.Error("key survived committed delete")
	}
}

func TestTransactionEnumerationSeesWriteSet(t *testing.T) {
	s := newStore(t)
	tab, _ := s.CreateTable("t", kvstore.WithParts(1))
	_ = tab.Put(1, "old")
	_, err := s.RunTransaction("t", 0, func(sv kvstore.ShardView) (any, error) {
		view, _ := sv.View("t")
		_ = view.Put(2, "new")
		seen := map[any]any{}
		err := view.Enumerate(func(k, v any) (bool, error) {
			seen[k] = v
			return false, nil
		})
		if err != nil {
			return nil, err
		}
		if len(seen) != 2 || seen[1] != "old" || seen[2] != "new" {
			t.Errorf("tx enumeration = %v", seen)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReplicationSurvivesPrimaryFailure(t *testing.T) {
	s := newStore(t, WithReplicas(2), WithParts(3))
	tab, _ := s.CreateTable("t")
	for i := 0; i < 90; i++ {
		if err := tab.Put(i, i*10); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < 3; p++ {
		if err := s.FailPrimary("t", p); err != nil {
			t.Fatalf("FailPrimary(%d): %v", p, err)
		}
	}
	for i := 0; i < 90; i++ {
		v, ok, err := tab.Get(i)
		if err != nil || !ok || v != i*10 {
			t.Fatalf("after failover Get(%d) = %v %v %v", i, v, ok, err)
		}
	}
}

func TestFailPrimaryWithoutReplicaMakesShardUnavailable(t *testing.T) {
	s := newStore(t, WithParts(2))
	tab, _ := s.CreateTable("t")
	key := 0
	for tab.PartOf(key) != 0 {
		key++
	}
	_ = tab.Put(key, 1)
	if err := s.FailPrimary("t", 0); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("FailPrimary err = %v, want ErrNoReplica", err)
	}
	if _, _, err := tab.Get(key); !errors.Is(err, kvstore.ErrShardFailed) {
		t.Errorf("Get on failed shard err = %v", err)
	}
	if err := tab.Put(key, 2); !errors.Is(err, kvstore.ErrShardFailed) {
		t.Errorf("Put on failed shard err = %v", err)
	}
	// Heal restores availability (data for the dead shard is lost).
	if err := s.Heal("t"); err != nil {
		t.Fatal(err)
	}
	if err := tab.Put(key, 3); err != nil {
		t.Errorf("Put after heal: %v", err)
	}
}

func TestHealRestoresReplication(t *testing.T) {
	s := newStore(t, WithReplicas(2), WithParts(1))
	tab, _ := s.CreateTable("t")
	_ = tab.Put("k", "v1")
	if err := s.FailPrimary("t", 0); err != nil {
		t.Fatal(err)
	}
	_ = tab.Put("k2", "v2")
	if err := s.Heal("t"); err != nil {
		t.Fatal(err)
	}
	// After heal we can fail over again and still see both keys.
	if err := s.FailPrimary("t", 0); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := tab.Get("k"); v != "v1" {
		t.Errorf("k = %v", v)
	}
	if v, _, _ := tab.Get("k2"); v != "v2" {
		t.Errorf("k2 = %v", v)
	}
}

func TestTransactionAbortedByFailover(t *testing.T) {
	s := newStore(t, WithReplicas(2), WithParts(1))
	tab, _ := s.CreateTable("t")
	_ = tab.Put("k", "before")
	_, err := s.RunTransaction("t", 0, func(sv kvstore.ShardView) (any, error) {
		view, _ := sv.View("t")
		_ = view.Put("k", "during")
		// Primary dies while the transaction is open.
		if err := s.FailPrimary("t", 0); err != nil {
			return nil, err
		}
		return nil, nil
	})
	if !errors.Is(err, kvstore.ErrShardFailed) {
		t.Fatalf("err = %v, want ErrShardFailed", err)
	}
	if v, _, _ := tab.Get("k"); v != "before" {
		t.Errorf("k = %v, want pre-transaction value", v)
	}
}

func TestConcurrentTransactionsSerialize(t *testing.T) {
	s := newStore(t, WithParts(1))
	tab, _ := s.CreateTable("t")
	_ = tab.Put("counter", 0)
	var wg sync.WaitGroup
	const n = 50
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.RunTransaction("t", 0, func(sv kvstore.ShardView) (any, error) {
				view, _ := sv.View("t")
				v, _, err := view.Get("counter")
				if err != nil {
					return nil, err
				}
				return nil, view.Put("counter", v.(int)+1)
			})
			if err != nil {
				t.Errorf("tx: %v", err)
			}
		}()
	}
	wg.Wait()
	if v, _, _ := tab.Get("counter"); v != n {
		t.Errorf("counter = %v, want %d (transactions must serialize)", v, n)
	}
}

func TestRunAgentNonTransactional(t *testing.T) {
	s := newStore(t, WithParts(2))
	tab, _ := s.CreateTable("t")
	key := 0
	for tab.PartOf(key) != 0 {
		key++
	}
	_, err := s.RunAgent("t", 0, func(sv kvstore.ShardView) (any, error) {
		view, err := sv.View("t")
		if err != nil {
			return nil, err
		}
		return nil, view.Put(key, "direct")
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _, _ := tab.Get(key); v != "direct" {
		t.Errorf("agent write = %v", v)
	}
}

func TestEnumeratePartsParallelAndCombined(t *testing.T) {
	s := newStore(t, WithParts(4))
	tab, _ := s.CreateTable("t")
	for i := 0; i < 100; i++ {
		_ = tab.Put(i, 1)
	}
	res, err := tab.EnumerateParts(kvstore.PartConsumerFuncs{
		ProcessFn: func(sv kvstore.ShardView) (any, error) {
			view, err := sv.View("t")
			if err != nil {
				return nil, err
			}
			return view.Len()
		},
		CombineFn: func(a, b any) (any, error) { return a.(int) + b.(int), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.(int) != 100 {
		t.Errorf("combined = %v", res)
	}
}

func TestGridSizeAndDrop(t *testing.T) {
	s := newStore(t, WithParts(3))
	tab, _ := s.CreateTable("t")
	for i := 0; i < 30; i++ {
		_ = tab.Put(i, i)
	}
	if n, _ := tab.Size(); n != 30 {
		t.Errorf("Size = %d", n)
	}
	if err := s.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LookupTable("t"); ok {
		t.Error("table visible after drop")
	}
}
