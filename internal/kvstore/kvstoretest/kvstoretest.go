// Package kvstoretest is the conformance suite for kvstore.Store
// implementations: one set of assertions about the SPI's observable
// behaviour, run against every store (and every decorator around one) so the
// implementations cannot drift apart unnoticed.
//
// A store's test calls Run with a constructor and a Profile. The Profile
// names the store and its exact set of optional interfaces — the only place
// stores differ. Every other assertion holds for every store.
package kvstoretest

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ripple/internal/kvstore"
)

// Caps is a store's optional-interface set, as the engine probes it: by type
// assertion on the Store value.
type Caps struct {
	Flusher       bool
	Transactional bool
	Replicated    bool
	Healer        bool
	FailureSensor bool
	TraceBinder   bool
}

// CapsOf reports the optional interfaces s satisfies.
func CapsOf(s kvstore.Store) Caps {
	var c Caps
	_, c.Flusher = s.(kvstore.Flusher)
	_, c.Transactional = s.(kvstore.Transactional)
	_, c.Replicated = s.(kvstore.Replicated)
	_, c.Healer = s.(kvstore.Healer)
	_, c.FailureSensor = s.(kvstore.FailureSensor)
	_, c.TraceBinder = s.(kvstore.TraceBinder)
	return c
}

// Profile states what the suite should expect of one store.
type Profile struct {
	// Name is Store.Name().
	Name string
	// DefaultParts is Store.DefaultParts() as the constructor configured it.
	DefaultParts int
	// Caps is the exact optional-interface set.
	Caps Caps
}

// Run runs the conformance suite. newStore must return a fresh, empty store
// and arrange for its own cleanup (t.Cleanup).
func Run(t *testing.T, newStore func(t *testing.T) kvstore.Store, want Profile) {
	cases := []struct {
		name string
		fn   func(t *testing.T, s kvstore.Store, want Profile)
	}{
		{"Identity", testIdentity},
		{"Capabilities", testCapabilities},
		{"Catalogue", testCatalogue},
		{"ConcurrentCreate", testConcurrentCreate},
		{"Routing", testRouting},
		{"MarshallingIsolation", testMarshallingIsolation},
		{"AgentViews", testAgentViews},
		{"AgentErrors", testAgentErrors},
		{"CoPlacement", testCoPlacement},
		{"Ubiquitous", testUbiquitous},
		{"UbiquitousEnumerate", testUbiquitousEnumerate},
		{"EnumeratePartsOrder", testEnumeratePartsOrder},
		{"EnumeratePairs", testEnumeratePairs},
		{"EnumeratePairsEarlyStop", testEnumeratePairsEarlyStop},
		{"OrderedEnumeration", testOrderedEnumeration},
		{"EnumerationMutates", testEnumerationMutates},
		{"Drop", testDrop},
		{"Closed", testClosed},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) { c.fn(t, newStore(t), want) })
	}
}

func create(t *testing.T, s kvstore.Store, name string, opts ...kvstore.TableOption) kvstore.Table {
	t.Helper()
	tab, err := s.CreateTable(name, opts...)
	if err != nil {
		t.Fatalf("CreateTable(%q): %v", name, err)
	}
	return tab
}

func put(t *testing.T, tab kvstore.Table, key, value any) {
	t.Helper()
	if err := tab.Put(key, value); err != nil {
		t.Fatalf("%s.Put(%v): %v", tab.Name(), key, err)
	}
}

func size(t *testing.T, tab kvstore.Table) int {
	t.Helper()
	n, err := tab.Size()
	if err != nil {
		t.Fatalf("%s.Size: %v", tab.Name(), err)
	}
	return n
}

// keysIn returns n distinct int keys that tab places in part, starting the
// search at from.
func keysIn(tab kvstore.Table, part, n, from int) []int {
	var keys []int
	for k := from; len(keys) < n; k++ {
		if tab.PartOf(k) == part {
			keys = append(keys, k)
		}
	}
	return keys
}

func noop(kvstore.ShardView) (any, error) { return nil, nil }

func testIdentity(t *testing.T, s kvstore.Store, want Profile) {
	if s.Name() != want.Name {
		t.Errorf("Name = %q, want %q", s.Name(), want.Name)
	}
	if s.DefaultParts() != want.DefaultParts {
		t.Errorf("DefaultParts = %d, want %d", s.DefaultParts(), want.DefaultParts)
	}
	tab := create(t, s, "t")
	if tab.Name() != "t" || tab.Ubiquitous() {
		t.Errorf("table identity: name %q ubiquitous %v", tab.Name(), tab.Ubiquitous())
	}
	if tab.Parts() != want.DefaultParts {
		t.Errorf("default table Parts = %d, want %d", tab.Parts(), want.DefaultParts)
	}
	for k := 0; k < 200; k++ {
		if p := tab.PartOf(k); p < 0 || p >= tab.Parts() || p != tab.PartOf(k) {
			t.Fatalf("PartOf(%d) = %d, unstable or outside [0,%d)", k, p, tab.Parts())
		}
	}
}

// The engine picks its recovery and commit paths by type assertion, and the
// benchmark's tracing decorator panics on a set it does not mirror, so the
// set is part of a store's contract.
func testCapabilities(t *testing.T, s kvstore.Store, want Profile) {
	if got := CapsOf(s); got != want.Caps {
		t.Errorf("optional interfaces = %+v, want %+v", got, want.Caps)
	}
}

func testCatalogue(t *testing.T, s kvstore.Store, _ Profile) {
	for _, n := range []string{"c", "a", "b"} {
		create(t, s, n, kvstore.WithParts(3))
	}
	if got, want := s.Tables(), []string{"c", "a", "b"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Tables = %v, want creation order %v", got, want)
	}
	if _, err := s.CreateTable("a"); !errors.Is(err, kvstore.ErrTableExists) {
		t.Errorf("duplicate create err = %v, want ErrTableExists", err)
	}
	if tab, ok := s.LookupTable("a"); !ok || tab.Name() != "a" || tab.Parts() != 3 {
		t.Errorf("LookupTable(a) = %v, %v", tab, ok)
	}
	if _, ok := s.LookupTable("nope"); ok {
		t.Error("LookupTable found a table that was never created")
	}
	if err := s.DropTable("a"); err != nil {
		t.Fatalf("DropTable: %v", err)
	}
	if got, want := s.Tables(), []string{"c", "b"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Tables after drop = %v, want %v", got, want)
	}

	if _, err := s.CreateTable("x", kvstore.ConsistentWith("zzz")); !errors.Is(err, kvstore.ErrNoTable) {
		t.Errorf("ConsistentWith(missing) err = %v, want ErrNoTable", err)
	}
	base, _ := s.LookupTable("c")
	twin := create(t, s, "twin", kvstore.ConsistentWith("c"))
	if twin.Parts() != base.Parts() {
		t.Fatalf("ConsistentWith table has %d parts, base has %d", twin.Parts(), base.Parts())
	}
	for k := 0; k < 500; k++ {
		if base.PartOf(k) != twin.PartOf(k) {
			t.Fatalf("key %d: base part %d, consistent table part %d", k, base.PartOf(k), twin.PartOf(k))
		}
	}
}

// Two callers creating one name race; exactly one gets the table and the
// other ErrTableExists, whatever the interleaving.
func testConcurrentCreate(t *testing.T, s kvstore.Store, _ Profile) {
	for round := 0; round < 200; round++ {
		name := fmt.Sprintf("race%d", round)
		var errs [2]error
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = s.CreateTable(name, kvstore.WithParts(1))
			}()
		}
		wg.Wait()
		won, lost := 0, 0
		for _, err := range errs {
			switch {
			case err == nil:
				won++
			case errors.Is(err, kvstore.ErrTableExists):
				lost++
			default:
				t.Fatalf("round %d: CreateTable err = %v", round, err)
			}
		}
		if won != 1 || lost != 1 {
			t.Fatalf("round %d: %d callers got the table and %d ErrTableExists, want 1 and 1", round, won, lost)
		}
		if err := s.DropTable(name); err != nil {
			t.Fatalf("round %d: DropTable: %v", round, err)
		}
	}
}

func testRouting(t *testing.T, s kvstore.Store, _ Profile) {
	const parts, n = 4, 120
	tab := create(t, s, "t", kvstore.WithParts(parts))
	if _, ok, err := tab.Get(1); err != nil || ok {
		t.Fatalf("Get(missing) = ok %v, err %v", ok, err)
	}
	for k := 0; k < n; k++ {
		put(t, tab, k, fmt.Sprintf("v%d", k))
	}
	put(t, tab, 7, "seven") // overwrite
	if v, ok, err := tab.Get(7); err != nil || !ok || v != "seven" {
		t.Errorf("Get after overwrite = %v, %v, %v", v, ok, err)
	}
	if got := size(t, tab); got != n {
		t.Errorf("Size = %d, want %d", got, n)
	}

	// Each part holds exactly the keys PartOf sends it.
	total := 0
	for p := 0; p < parts; p++ {
		p := p
		res, err := s.RunAgent("t", p, func(sv kvstore.ShardView) (any, error) {
			view, err := sv.View("t")
			if err != nil {
				return nil, err
			}
			seen := 0
			err = view.Enumerate(func(k, _ any) (bool, error) {
				if tab.PartOf(k) != p {
					t.Errorf("key %v found in part %d, PartOf says %d", k, p, tab.PartOf(k))
				}
				seen++
				return false, nil
			})
			return seen, err
		})
		if err != nil {
			t.Fatalf("RunAgent(%d): %v", p, err)
		}
		total += res.(int)
	}
	if total != n {
		t.Errorf("parts hold %d keys in total, want %d", total, n)
	}

	if err := tab.Delete(7); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok, _ := tab.Get(7); ok {
		t.Error("Get finds a deleted key")
	}
	if err := tab.Delete(7); err != nil {
		t.Errorf("Delete of an absent key: %v", err)
	}
	if got := size(t, tab); got != n-1 {
		t.Errorf("Size after delete = %d, want %d", got, n-1)
	}
}

// A value that crosses the table boundary is copied: neither the writer's
// nor a reader's later mutations reach the stored value.
func testMarshallingIsolation(t *testing.T, s kvstore.Store, _ Profile) {
	tab := create(t, s, "t")
	orig := []int{1, 2, 3}
	put(t, tab, "k", orig)
	orig[0] = 999
	v, ok, err := tab.Get("k")
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	got := v.([]int)
	if got[0] != 1 {
		t.Error("store shares memory with the writer")
	}
	got[1] = 888
	v2, _, _ := tab.Get("k")
	if v2.([]int)[1] != 2 {
		t.Error("store shares memory with a reader")
	}
}

func testAgentViews(t *testing.T, s kvstore.Store, _ Profile) {
	const parts = 3
	tab := create(t, s, "t", kvstore.WithParts(parts))
	for p := 0; p < parts; p++ {
		put(t, tab, keysIn(tab, p, 1, 0)[0], "outside")
	}
	for p := 0; p < parts; p++ {
		p := p
		keys := keysIn(tab, p, 2, 0)
		old, fresh := keys[0], keys[1]
		res, err := s.RunAgent("t", p, func(sv kvstore.ShardView) (any, error) {
			if sv.Part() != p {
				t.Errorf("ShardView.Part = %d, want %d", sv.Part(), p)
			}
			view, err := sv.View("t")
			if err != nil {
				return nil, err
			}
			if view.Table() != "t" || view.Part() != p {
				t.Errorf("view identity %s/%d, want t/%d", view.Table(), view.Part(), p)
			}
			if v, ok, err := view.Get(old); err != nil || !ok || v != "outside" {
				t.Errorf("part %d: view.Get of a table Put = %v, %v, %v", p, v, ok, err)
			}
			if err := view.Put(fresh, "inside"); err != nil {
				return nil, err
			}
			if v, ok, err := view.Get(fresh); err != nil || !ok || v != "inside" {
				t.Errorf("part %d: agent does not read its own write: %v, %v, %v", p, v, ok, err)
			}
			if n, err := view.Len(); err != nil || n != 2 {
				t.Errorf("part %d: Len = %d, %v, want 2", p, n, err)
			}
			if err := view.Delete(old); err != nil {
				return nil, err
			}
			if _, ok, _ := view.Get(old); ok {
				t.Errorf("part %d: agent reads a key it deleted", p)
			}
			if n, err := view.Len(); err != nil || n != 1 {
				t.Errorf("part %d: Len after delete = %d, %v, want 1", p, n, err)
			}
			return p * 10, nil
		})
		if err != nil {
			t.Fatalf("RunAgent(%d): %v", p, err)
		}
		if res != p*10 {
			t.Errorf("RunAgent(%d) result = %v, want %d", p, res, p*10)
		}
		if v, ok, err := tab.Get(fresh); err != nil || !ok || v != "inside" {
			t.Errorf("part %d: agent write not visible outside: %v, %v, %v", p, v, ok, err)
		}
		if _, ok, _ := tab.Get(old); ok {
			t.Errorf("part %d: agent delete not visible outside", p)
		}
	}
	if got := size(t, tab); got != parts {
		t.Errorf("Size = %d, want %d", got, parts)
	}
}

func testAgentErrors(t *testing.T, s kvstore.Store, _ Profile) {
	if _, err := s.RunAgent("none", 0, noop); !errors.Is(err, kvstore.ErrNoTable) {
		t.Errorf("RunAgent on a missing table err = %v, want ErrNoTable", err)
	}
	create(t, s, "t", kvstore.WithParts(2))
	for _, part := range []int{-1, 2, 5} {
		if _, err := s.RunAgent("t", part, noop); !errors.Is(err, kvstore.ErrBadPart) {
			t.Errorf("RunAgent part %d err = %v, want ErrBadPart", part, err)
		}
	}
	boom := errors.New("agent boom")
	if _, err := s.RunAgent("t", 0, func(kvstore.ShardView) (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("agent error not propagated: %v", err)
	}
}

func testCoPlacement(t *testing.T, s kvstore.Store, _ Profile) {
	create(t, s, "a", kvstore.WithParts(3))
	create(t, s, "b", kvstore.ConsistentWith("a"))
	create(t, s, "same", kvstore.WithParts(3)) // own group, same part count
	create(t, s, "wider", kvstore.WithParts(5))
	_, err := s.RunAgent("a", 1, func(sv kvstore.ShardView) (any, error) {
		for _, name := range []string{"b", "same"} {
			view, err := sv.View(name)
			if err != nil {
				t.Errorf("View(%s) from an agent on a: %v", name, err)
			} else if view.Part() != 1 {
				t.Errorf("View(%s).Part = %d, want the agent's part 1", name, view.Part())
			}
		}
		if _, err := sv.View("wider"); !errors.Is(err, kvstore.ErrNotCoPlaced) {
			t.Errorf("View of a table with another part count err = %v, want ErrNotCoPlaced", err)
		}
		if _, err := sv.View("missing"); !errors.Is(err, kvstore.ErrNoTable) {
			t.Errorf("View of a missing table err = %v, want ErrNoTable", err)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func testUbiquitous(t *testing.T, s kvstore.Store, _ Profile) {
	u := create(t, s, "u", kvstore.Ubiquitous())
	if !u.Ubiquitous() || u.Parts() != 1 || u.PartOf("anything") != 0 {
		t.Errorf("Ubiquitous = %v, Parts = %d, PartOf = %d", u.Ubiquitous(), u.Parts(), u.PartOf("anything"))
	}
	put(t, u, "cfg", 42)
	put(t, u, "gone", 1)
	if got := size(t, u); got != 2 {
		t.Errorf("Size = %d, want 2", got)
	}
	if err := u.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := u.Get("cfg"); err != nil || !ok || v != 42 {
		t.Errorf("Get = %v, %v, %v", v, ok, err)
	}

	// Readable — and writable — next to every part of any other table.
	const parts = 3
	create(t, s, "data", kvstore.WithParts(parts))
	for p := 0; p < parts; p++ {
		p := p
		_, err := s.RunAgent("data", p, func(sv kvstore.ShardView) (any, error) {
			view, err := sv.View("u")
			if err != nil {
				return nil, err
			}
			if view.Table() != "u" {
				t.Errorf("view.Table = %q", view.Table())
			}
			if v, ok, err := view.Get("cfg"); err != nil || !ok || v != 42 {
				t.Errorf("part %d: ubiquitous read = %v, %v, %v", p, v, ok, err)
			}
			if _, ok, _ := view.Get("gone"); ok {
				t.Errorf("part %d: reads a deleted ubiquitous key", p)
			}
			return nil, view.Put(fmt.Sprintf("from-%d", p), p)
		})
		if err != nil {
			t.Fatalf("RunAgent(%d): %v", p, err)
		}
	}
	for p := 0; p < parts; p++ {
		if v, ok, err := u.Get(fmt.Sprintf("from-%d", p)); err != nil || !ok || v != p {
			t.Errorf("write through part %d's ubiquitous view = %v, %v, %v", p, v, ok, err)
		}
	}

	if _, err := s.RunAgent("u", 0, noop); err == nil {
		t.Error("RunAgent on a ubiquitous table succeeded, want an error")
	}
	if err := s.DropTable("u"); err != nil {
		t.Errorf("DropTable of a ubiquitous table: %v", err)
	}
}

func testUbiquitousEnumerate(t *testing.T, s kvstore.Store, _ Profile) {
	u := create(t, s, "u", kvstore.Ubiquitous())
	create(t, s, "data", kvstore.WithParts(3))
	for _, k := range []string{"c", "a", "b"} {
		put(t, u, k, k+k)
	}

	// EnumerateParts: one ProcessPart, on part 0, with a working local view.
	calls := 0
	res, err := u.EnumerateParts(kvstore.PartConsumerFuncs{
		ProcessFn: func(sv kvstore.ShardView) (any, error) {
			calls++
			if sv.Part() != 0 {
				t.Errorf("ShardView.Part = %d, want 0", sv.Part())
			}
			view, err := sv.View("u")
			if err != nil {
				return nil, err
			}
			if view.Table() != "u" || view.Part() != 0 {
				t.Errorf("view identity %s/%d, want u/0", view.Table(), view.Part())
			}
			before, err := view.Len()
			if err != nil {
				return nil, err
			}
			if err := view.Put("d", "dd"); err != nil {
				return nil, err
			}
			if err := view.Delete("a"); err != nil {
				return nil, err
			}
			var keys []any
			if err := view.EnumerateOrdered(func(k, v any) (bool, error) {
				if v != k.(string)+k.(string) {
					t.Errorf("pair %v = %v", k, v)
				}
				keys = append(keys, k)
				return false, nil
			}); err != nil {
				return nil, err
			}
			if want := []any{"b", "c", "d"}; !reflect.DeepEqual(keys, want) {
				t.Errorf("ordered keys after mutation = %v, want %v", keys, want)
			}
			stopped := 0
			if err := view.Enumerate(func(_, _ any) (bool, error) { stopped++; return true, nil }); err != nil {
				return nil, err
			}
			if stopped != 1 {
				t.Errorf("early stop visited %d pairs", stopped)
			}
			if _, err := sv.View("data"); !errors.Is(err, kvstore.ErrNotCoPlaced) {
				t.Errorf("View of a partitioned table from a ubiquitous anchor err = %v, want ErrNotCoPlaced", err)
			}
			return before, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || res != 3 {
		t.Errorf("ProcessPart ran %d times with result %v, want once with 3", calls, res)
	}
	if v, ok, _ := u.Get("d"); !ok || v != "dd" {
		t.Errorf("write through the enumeration's view = %v, %v", v, ok)
	}
	if _, ok, _ := u.Get("a"); ok {
		t.Error("delete through the enumeration's view not visible")
	}

	// EnumeratePairs: Setup(0), pairs in key order until stop, Finish(0).
	var trail []string
	res, err = u.EnumeratePairs(kvstore.PairConsumerFuncs{
		SetupFn: func(p int) error { trail = append(trail, fmt.Sprintf("setup%d", p)); return nil },
		ConsumeFn: func(k, _ any) (bool, error) {
			trail = append(trail, k.(string))
			return len(trail) == 3, nil
		},
		FinishFn: func(p int) (any, error) { trail = append(trail, fmt.Sprintf("finish%d", p)); return "done", nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"setup0", "b", "c", "finish0"}; !reflect.DeepEqual(trail, want) || res != "done" {
		t.Errorf("EnumeratePairs trail = %v result %v, want %v and done", trail, res, want)
	}
}

// Parts run in parallel but their results are folded left to right in part
// order, so a non-commutative Combine gives the same answer on every store.
func testEnumeratePartsOrder(t *testing.T, s kvstore.Store, _ Profile) {
	const parts = 5
	tab := create(t, s, "t", kvstore.WithParts(parts))
	for k := 0; k < 50; k++ {
		put(t, tab, k, 1)
	}
	res, err := tab.EnumerateParts(kvstore.PartConsumerFuncs{
		ProcessFn: func(sv kvstore.ShardView) (any, error) {
			view, err := sv.View("t")
			if err != nil {
				return nil, err
			}
			n, err := view.Len()
			return fmt.Sprintf("%d:%d", sv.Part(), n), err
		},
		CombineFn: func(a, b any) (any, error) { return a.(string) + " " + b.(string), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	for p := 0; p < parts; p++ {
		if p > 0 {
			want += " "
		}
		want += fmt.Sprintf("%d:%d", p, len(keysInRange(tab, p, 50)))
	}
	if res != want {
		t.Errorf("folded result = %q, want %q", res, want)
	}

	boom := errors.New("part boom")
	_, err = tab.EnumerateParts(kvstore.PartConsumerFuncs{
		ProcessFn: func(sv kvstore.ShardView) (any, error) {
			if sv.Part() == 2 {
				return nil, boom
			}
			return nil, nil
		},
	})
	if !errors.Is(err, boom) {
		t.Errorf("a part's error not propagated: %v", err)
	}
}

func keysInRange(tab kvstore.Table, part, n int) []int {
	var keys []int
	for k := 0; k < n; k++ {
		if tab.PartOf(k) == part {
			keys = append(keys, k)
		}
	}
	return keys
}

func testEnumeratePairs(t *testing.T, s kvstore.Store, _ Profile) {
	const parts, n = 3, 90
	tab := create(t, s, "t", kvstore.WithParts(parts))
	for k := 0; k < n; k++ {
		put(t, tab, k, k*k)
	}
	var mu sync.Mutex
	setups, finishes := map[int]int{}, map[int]int{}
	perPart := map[int]int{}
	seen := map[int]bool{}
	res, err := tab.EnumeratePairs(kvstore.PairConsumerFuncs{
		SetupFn: func(p int) error {
			mu.Lock()
			defer mu.Unlock()
			setups[p]++
			return nil
		},
		ConsumeFn: func(k, v any) (bool, error) {
			mu.Lock()
			defer mu.Unlock()
			if v != k.(int)*k.(int) {
				t.Errorf("pair %v = %v", k, v)
			}
			seen[k.(int)] = true
			perPart[tab.PartOf(k)]++
			return false, nil
		},
		FinishFn: func(p int) (any, error) {
			mu.Lock()
			defer mu.Unlock()
			finishes[p]++
			return []int{perPart[p]}, nil
		},
		CombineFn: func(a, b any) (any, error) { return append(a.([]int), b.([]int)...), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Errorf("visited %d distinct keys, want %d", len(seen), n)
	}
	var want []int
	for p := 0; p < parts; p++ {
		if setups[p] != 1 || finishes[p] != 1 {
			t.Errorf("part %d: %d setups, %d finishes, want one each", p, setups[p], finishes[p])
		}
		want = append(want, len(keysInRange(tab, p, n)))
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("per-part counts folded = %v, want %v (part order)", res, want)
	}
}

// stop=true ends one part's enumeration; the part is still finished and the
// other parts are unaffected.
func testEnumeratePairsEarlyStop(t *testing.T, s kvstore.Store, _ Profile) {
	const parts = 3
	tab := create(t, s, "t", kvstore.WithParts(parts))
	for k := 0; k < 60; k++ {
		put(t, tab, k, k)
	}
	var mu sync.Mutex
	consumed := map[int]int{}
	res, err := tab.EnumeratePairs(kvstore.PairConsumerFuncs{
		ConsumeFn: func(k, _ any) (bool, error) {
			mu.Lock()
			defer mu.Unlock()
			p := tab.PartOf(k)
			consumed[p]++
			return consumed[p] == 2, nil
		},
		FinishFn:  func(int) (any, error) { return 1, nil },
		CombineFn: func(a, b any) (any, error) { return a.(int) + b.(int), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parts; p++ {
		if consumed[p] != 2 {
			t.Errorf("part %d consumed %d pairs, want 2 (stopped early)", p, consumed[p])
		}
	}
	if res != parts {
		t.Errorf("finished %v parts, want %d", res, parts)
	}
}

func testOrderedEnumeration(t *testing.T, s kvstore.Store, _ Profile) {
	const parts = 2
	tab := create(t, s, "t", kvstore.WithParts(parts), kvstore.Ordered())
	for _, k := range []int{50, 3, 91, 17, 7, 28, 64, 1, 40, 12, 85, 33} {
		put(t, tab, k, k)
	}
	ascending := func(keys []int) bool {
		for i := 1; i < len(keys); i++ {
			if keys[i] <= keys[i-1] {
				return false
			}
		}
		return true
	}
	// PartView.EnumerateOrdered is ordered on every store.
	for p := 0; p < parts; p++ {
		var keys []int
		_, err := s.RunAgent("t", p, func(sv kvstore.ShardView) (any, error) {
			view, err := sv.View("t")
			if err != nil {
				return nil, err
			}
			return nil, view.EnumerateOrdered(func(k, _ any) (bool, error) {
				keys = append(keys, k.(int))
				return false, nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) == 0 || !ascending(keys) {
			t.Errorf("part %d EnumerateOrdered = %v, want ascending and non-empty", p, keys)
		}
	}
	// So is Table.EnumeratePairs over a table created Ordered, per part.
	var mu sync.Mutex
	perPart := map[int][]int{}
	if _, err := tab.EnumeratePairs(kvstore.PairConsumerFuncs{
		ConsumeFn: func(k, _ any) (bool, error) {
			mu.Lock()
			defer mu.Unlock()
			p := tab.PartOf(k)
			perPart[p] = append(perPart[p], k.(int))
			return false, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for p := 0; p < parts; p++ {
		total += len(perPart[p])
		if !ascending(perPart[p]) {
			t.Errorf("part %d EnumeratePairs over an Ordered table = %v, want ascending", p, perPart[p])
		}
	}
	if total != 12 {
		t.Errorf("EnumeratePairs visited %d pairs, want 12", total)
	}
}

// An enumeration callback may write to the part it is enumerating.
func testEnumerationMutates(t *testing.T, s kvstore.Store, _ Profile) {
	tab := create(t, s, "t", kvstore.WithParts(1))
	for k := 0; k < 40; k++ {
		put(t, tab, k, k)
	}
	_, err := s.RunAgent("t", 0, func(sv kvstore.ShardView) (any, error) {
		view, err := sv.View("t")
		if err != nil {
			return nil, err
		}
		return nil, view.Enumerate(func(k, v any) (bool, error) {
			if k.(int)%2 == 0 {
				return false, view.Delete(k)
			}
			return false, view.Put(k, v.(int)+100)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := size(t, tab); got != 20 {
		t.Errorf("Size after deleting every even key = %d, want 20", got)
	}
	if v, ok, _ := tab.Get(5); !ok || v != 105 {
		t.Errorf("key rewritten during enumeration = %v, %v, want 105", v, ok)
	}
}

func testDrop(t *testing.T, s kvstore.Store, _ Profile) {
	create(t, s, "keep", kvstore.WithParts(2))
	tab := create(t, s, "t", kvstore.ConsistentWith("keep"))
	put(t, tab, 1, "x")
	if err := s.DropTable("t"); err != nil {
		t.Fatalf("DropTable: %v", err)
	}
	if err := s.DropTable("t"); !errors.Is(err, kvstore.ErrNoTable) {
		t.Errorf("second DropTable err = %v, want ErrNoTable", err)
	}
	if _, ok := s.LookupTable("t"); ok {
		t.Error("dropped table still found")
	}
	if _, err := s.RunAgent("t", 0, noop); !errors.Is(err, kvstore.ErrNoTable) {
		t.Errorf("RunAgent on a dropped table err = %v, want ErrNoTable", err)
	}
	_, err := s.RunAgent("keep", 0, func(sv kvstore.ShardView) (any, error) {
		_, err := sv.View("t")
		return nil, err
	})
	if !errors.Is(err, kvstore.ErrNoTable) {
		t.Errorf("View of a dropped table err = %v, want ErrNoTable", err)
	}
	// A handle taken before the drop answers ErrNoTable, whether the table
	// shared its parts ("t" with "keep") or had them to itself.
	solo := create(t, s, "solo", kvstore.WithParts(2))
	if err := s.DropTable("solo"); err != nil {
		t.Fatalf("DropTable: %v", err)
	}
	for _, old := range []kvstore.Table{tab, solo} {
		if _, _, err := old.Get(1); !errors.Is(err, kvstore.ErrNoTable) {
			t.Errorf("Get through a dropped %q handle err = %v, want ErrNoTable", old.Name(), err)
		}
		if err := old.Put(2, "y"); !errors.Is(err, kvstore.ErrNoTable) {
			t.Errorf("Put through a dropped %q handle err = %v, want ErrNoTable", old.Name(), err)
		}
	}
	// The name is free again and the old contents are gone.
	again := create(t, s, "t", kvstore.WithParts(2))
	if got := size(t, again); got != 0 {
		t.Errorf("re-created table has %d pairs, want 0", got)
	}
}

func testClosed(t *testing.T, s kvstore.Store, _ Profile) {
	tab := create(t, s, "t", kvstore.WithParts(2))
	put(t, tab, 1, "x")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := s.CreateTable("t2"); !errors.Is(err, kvstore.ErrClosed) {
		t.Errorf("CreateTable after Close err = %v, want ErrClosed", err)
	}
	_, err := s.RunAgent("t", 0, func(sv kvstore.ShardView) (any, error) {
		view, err := sv.View("t")
		if err != nil {
			return nil, err
		}
		_, _, err = view.Get(1)
		return nil, err
	})
	if !errors.Is(err, kvstore.ErrClosed) {
		t.Errorf("RunAgent after Close err = %v, want ErrClosed", err)
	}
	// A handle taken before Close stops working too.
	if _, _, err := tab.Get(1); !errors.Is(err, kvstore.ErrClosed) {
		t.Errorf("Get through a handle after Close err = %v, want ErrClosed", err)
	}
	if err := tab.Put(2, "y"); !errors.Is(err, kvstore.ErrClosed) {
		t.Errorf("Put through a handle after Close err = %v, want ErrClosed", err)
	}
}
