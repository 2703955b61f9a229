package memstore

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"ripple/internal/codec"
	"ripple/internal/kvstore"
	"ripple/internal/metrics"
)

type record struct {
	N     int
	Label string
	Data  []int
}

func init() {
	codec.Register(record{})
}

func newStore(t *testing.T, opts ...Option) *Store {
	t.Helper()
	s := New(opts...)
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestCreateLookupDrop(t *testing.T) {
	s := newStore(t)
	tab, err := s.CreateTable("t1")
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if tab.Name() != "t1" {
		t.Errorf("Name = %q", tab.Name())
	}
	if tab.Parts() != 6 {
		t.Errorf("Parts = %d, want default 6", tab.Parts())
	}
	if _, err := s.CreateTable("t1"); !errors.Is(err, kvstore.ErrTableExists) {
		t.Errorf("duplicate create err = %v", err)
	}
	if _, ok := s.LookupTable("t1"); !ok {
		t.Error("LookupTable failed after create")
	}
	if _, ok := s.LookupTable("nope"); ok {
		t.Error("LookupTable found nonexistent table")
	}
	if err := s.DropTable("t1"); err != nil {
		t.Fatalf("DropTable: %v", err)
	}
	if _, ok := s.LookupTable("t1"); ok {
		t.Error("table still visible after drop")
	}
	if err := s.DropTable("t1"); !errors.Is(err, kvstore.ErrNoTable) {
		t.Errorf("double drop err = %v", err)
	}
}

func TestTablesListsInCreationOrder(t *testing.T) {
	s := newStore(t)
	for _, n := range []string{"c", "a", "b"} {
		if _, err := s.CreateTable(n); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Tables()
	want := []string{"c", "a", "b"}
	if len(got) != len(want) {
		t.Fatalf("Tables = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Tables[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestGetPutDelete(t *testing.T) {
	s := newStore(t)
	tab, _ := s.CreateTable("t")
	if _, ok, err := tab.Get(1); err != nil || ok {
		t.Fatalf("Get(missing) = ok=%v err=%v", ok, err)
	}
	if err := tab.Put(1, "one"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, ok, err := tab.Get(1)
	if err != nil || !ok || v != "one" {
		t.Fatalf("Get = %v, %v, %v", v, ok, err)
	}
	if err := tab.Put(1, "uno"); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if v, _, _ := tab.Get(1); v != "uno" {
		t.Errorf("after overwrite Get = %v", v)
	}
	if err := tab.Delete(1); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok, _ := tab.Get(1); ok {
		t.Error("Get ok after Delete")
	}
	if err := tab.Delete(1); err != nil {
		t.Errorf("Delete absent key: %v", err)
	}
}

func TestSize(t *testing.T) {
	s := newStore(t)
	tab, _ := s.CreateTable("t", kvstore.WithParts(4))
	for i := 0; i < 100; i++ {
		if err := tab.Put(i, i*i); err != nil {
			t.Fatal(err)
		}
	}
	n, err := tab.Size()
	if err != nil || n != 100 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	_ = tab.Delete(7)
	if n, _ := tab.Size(); n != 99 {
		t.Errorf("Size after delete = %d", n)
	}
}

func TestWithoutMarshallingSharesMemory(t *testing.T) {
	s := newStore(t, WithoutMarshalling())
	tab, _ := s.CreateTable("t")
	orig := record{Data: []int{1}}
	if err := tab.Put("k", orig); err != nil {
		t.Fatal(err)
	}
	v, _, _ := tab.Get("k")
	got := v.(record)
	if &got.Data[0] != &orig.Data[0] {
		t.Skip("slice copied anyway — acceptable")
	}
}

func TestPartOfStableAndInRange(t *testing.T) {
	s := newStore(t)
	tab, _ := s.CreateTable("t", kvstore.WithParts(7))
	f := func(k int64) bool {
		p := tab.PartOf(k)
		return p >= 0 && p < 7 && p == tab.PartOf(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPutGetProperty(t *testing.T) {
	s := newStore(t)
	tab, _ := s.CreateTable("t", kvstore.WithParts(3))
	f := func(k int32, v string) bool {
		if err := tab.Put(int(k), v); err != nil {
			return false
		}
		got, ok, err := tab.Get(int(k))
		return err == nil && ok && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConsistentPartitioning(t *testing.T) {
	s := newStore(t)
	a, _ := s.CreateTable("a", kvstore.WithParts(5))
	b, err := s.CreateTable("b", kvstore.ConsistentWith("a"))
	if err != nil {
		t.Fatalf("ConsistentWith: %v", err)
	}
	if b.Parts() != 5 {
		t.Errorf("b.Parts = %d, want 5", b.Parts())
	}
	for i := 0; i < 1000; i++ {
		if a.PartOf(i) != b.PartOf(i) {
			t.Fatalf("key %d maps to different parts", i)
		}
	}
	if _, err := s.CreateTable("c", kvstore.ConsistentWith("zzz")); !errors.Is(err, kvstore.ErrNoTable) {
		t.Errorf("ConsistentWith missing table err = %v", err)
	}
}

func TestRunAgentLocalAccess(t *testing.T) {
	s := newStore(t)
	tab, _ := s.CreateTable("t", kvstore.WithParts(4))
	for i := 0; i < 40; i++ {
		if err := tab.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	// Each part sees exactly its own keys.
	total := 0
	for p := 0; p < 4; p++ {
		res, err := s.RunAgent("t", p, func(sv kvstore.ShardView) (any, error) {
			if sv.Part() != p {
				t.Errorf("agent part = %d, want %d", sv.Part(), p)
			}
			view, err := sv.View("t")
			if err != nil {
				return nil, err
			}
			n := 0
			err = view.Enumerate(func(k, v any) (bool, error) {
				if tab.PartOf(k) != p {
					t.Errorf("key %v in part %d, belongs to %d", k, p, tab.PartOf(k))
				}
				n++
				return false, nil
			})
			return n, err
		})
		if err != nil {
			t.Fatalf("RunAgent(%d): %v", p, err)
		}
		total += res.(int)
	}
	if total != 40 {
		t.Errorf("agents saw %d keys, want 40", total)
	}
}

func TestRunAgentErrors(t *testing.T) {
	s := newStore(t)
	if _, err := s.RunAgent("none", 0, func(kvstore.ShardView) (any, error) { return nil, nil }); !errors.Is(err, kvstore.ErrNoTable) {
		t.Errorf("missing table err = %v", err)
	}
	_, _ = s.CreateTable("t", kvstore.WithParts(2))
	if _, err := s.RunAgent("t", 5, func(kvstore.ShardView) (any, error) { return nil, nil }); !errors.Is(err, kvstore.ErrBadPart) {
		t.Errorf("bad part err = %v", err)
	}
	wantErr := errors.New("agent boom")
	if _, err := s.RunAgent("t", 0, func(kvstore.ShardView) (any, error) { return nil, wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("agent error not propagated: %v", err)
	}
}

func TestAgentCrossTableCoPlacement(t *testing.T) {
	s := newStore(t)
	_, _ = s.CreateTable("a", kvstore.WithParts(3))
	_, _ = s.CreateTable("b", kvstore.ConsistentWith("a"))
	_, _ = s.CreateTable("other", kvstore.WithParts(5))
	_, err := s.RunAgent("a", 1, func(sv kvstore.ShardView) (any, error) {
		if _, err := sv.View("b"); err != nil {
			t.Errorf("co-placed view: %v", err)
		}
		if _, err := sv.View("other"); !errors.Is(err, kvstore.ErrNotCoPlaced) {
			t.Errorf("non-co-placed view err = %v", err)
		}
		if _, err := sv.View("missing"); !errors.Is(err, kvstore.ErrNoTable) {
			t.Errorf("missing view err = %v", err)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAgentSamePartsDefaultHasherCoPlaced(t *testing.T) {
	s := newStore(t)
	_, _ = s.CreateTable("a", kvstore.WithParts(4))
	_, _ = s.CreateTable("b", kvstore.WithParts(4))
	_, err := s.RunAgent("a", 0, func(sv kvstore.ShardView) (any, error) {
		_, err := sv.View("b")
		return nil, err
	})
	if err != nil {
		t.Errorf("same parts + default hasher should be co-placed: %v", err)
	}
}

func TestAgentLocalWritesVisible(t *testing.T) {
	s := newStore(t)
	tab, _ := s.CreateTable("t", kvstore.WithParts(2))
	key := 0
	for tab.PartOf(key) != 1 {
		key++
	}
	_, err := s.RunAgent("t", 1, func(sv kvstore.ShardView) (any, error) {
		view, _ := sv.View("t")
		return nil, view.Put(key, "from-agent")
	})
	if err != nil {
		t.Fatal(err)
	}
	v, ok, _ := tab.Get(key)
	if !ok || v != "from-agent" {
		t.Errorf("Get = %v, %v", v, ok)
	}
}

func TestEnumeratePartsCombineOrder(t *testing.T) {
	s := newStore(t)
	tab, _ := s.CreateTable("t", kvstore.WithParts(4))
	res, err := tab.EnumerateParts(kvstore.PartConsumerFuncs{
		ProcessFn: func(sv kvstore.ShardView) (any, error) {
			return []int{sv.Part()}, nil
		},
		CombineFn: func(a, b any) (any, error) {
			return append(a.([]int), b.([]int)...), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.([]int)
	for i, p := range got {
		if p != i {
			t.Fatalf("combine order %v, want parts in order", got)
		}
	}
}

func TestConcurrentPuts(t *testing.T) {
	s := newStore(t)
	tab, _ := s.CreateTable("t", kvstore.WithParts(4))
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := tab.Put(w*per+i, w); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n, _ := tab.Size(); n != workers*per {
		t.Errorf("Size = %d, want %d", n, workers*per)
	}
}

func TestConcurrentAgentsAndOps(t *testing.T) {
	// Short ops must proceed while a long-running agent occupies a part.
	s := newStore(t)
	tab, _ := s.CreateTable("t", kvstore.WithParts(2))
	for i := 0; i < 100; i++ {
		_ = tab.Put(i, i)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err := s.RunAgent("t", 0, func(sv kvstore.ShardView) (any, error) {
			view, _ := sv.View("t")
			// A slow enumeration.
			return nil, view.Enumerate(func(k, v any) (bool, error) {
				return false, nil
			})
		})
		if err != nil {
			t.Errorf("agent: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if _, _, err := tab.Get(i); err != nil {
				t.Errorf("Get during agent: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

func TestOpsAfterClose(t *testing.T) {
	s := New()
	tab, _ := s.CreateTable("t")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := tab.Put(1, 1); !errors.Is(err, kvstore.ErrClosed) {
		t.Errorf("Put after close err = %v", err)
	}
	if _, err := s.CreateTable("t2"); !errors.Is(err, kvstore.ErrClosed) {
		t.Errorf("CreateTable after close err = %v", err)
	}
}

func TestMetricsCounting(t *testing.T) {
	m := &metrics.Collector{}
	s := newStore(t, WithMetrics(m))
	tab, _ := s.CreateTable("t")
	_ = tab.Put(1, "x")
	_, _, _ = tab.Get(1)
	_ = tab.Delete(1)
	snap := m.Snapshot()
	if snap.StorePuts != 1 || snap.StoreGets != 1 || snap.StoreDeletes != 1 {
		t.Errorf("metrics = %+v", snap)
	}
	if snap.MarshalledBytes == 0 {
		t.Error("expected marshalled bytes > 0")
	}
}

func TestEnumerationCallbackMayMutate(t *testing.T) {
	s := newStore(t)
	_, _ = s.CreateTable("t", kvstore.WithParts(1))
	tab, _ := s.LookupTable("t")
	for i := 0; i < 50; i++ {
		_ = tab.Put(i, i)
	}
	_, err := s.RunAgent("t", 0, func(sv kvstore.ShardView) (any, error) {
		view, _ := sv.View("t")
		return nil, view.Enumerate(func(k, v any) (bool, error) {
			// Deleting while enumerating must not deadlock or error.
			return false, view.Delete(k)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := tab.Size(); n != 0 {
		t.Errorf("Size after delete-all = %d", n)
	}
}

func TestPartViewLenAndTableName(t *testing.T) {
	s := newStore(t)
	tab, _ := s.CreateTable("t", kvstore.WithParts(2))
	for i := 0; i < 20; i++ {
		_ = tab.Put(i, i)
	}
	got := 0
	for p := 0; p < 2; p++ {
		res, err := s.RunAgent("t", p, func(sv kvstore.ShardView) (any, error) {
			view, _ := sv.View("t")
			if view.Table() != "t" || view.Part() != p {
				t.Errorf("view identity %s/%d", view.Table(), view.Part())
			}
			return view.Len()
		})
		if err != nil {
			t.Fatal(err)
		}
		got += res.(int)
	}
	if got != 20 {
		t.Errorf("sum of Lens = %d, want 20", got)
	}
}

func TestDumpAndLoadMapHelpers(t *testing.T) {
	s := newStore(t)
	tab, _ := s.CreateTable("t", kvstore.WithParts(3))
	for k, v := range map[any]any{1: "a", 2: "b", 3: "c"} {
		if err := tab.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	out, err := kvstore.Dump(tab)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[1] != "a" || out[2] != "b" || out[3] != "c" {
		t.Errorf("Dump = %v", out)
	}
}
