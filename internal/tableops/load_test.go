package tableops_test

// Tests of the bulk loads that enter a store outside a step: PageRank's
// graph load and rank seeding, both SSSP Inits and the engine's application
// of a job's loaded states. A golden digest of the tables they leave is
// pinned across every store, and a counting store holds each load to one
// agent per touched part and no table-handle writes.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"ripple/internal/codec"
	"ripple/internal/diskstore"
	"ripple/internal/ebsp"
	"ripple/internal/gridstore"
	"ripple/internal/kvstore"
	"ripple/internal/memstore"
	"ripple/internal/netstore"
	"ripple/internal/pagerank"
	"ripple/internal/sssp"
	"ripple/internal/workload"
)

const loadParts = 6

// stateJob is a one-step job whose StateLoader seeds n distinct keys and
// enables nothing, so its run is the engine's load and nothing else.
func stateJob(n int, loaders ...ebsp.Loader) *ebsp.Job {
	states := make(map[any]any, n)
	for k := 0; k < n; k++ {
		states[k] = []int32{int32(k), int32(k * k)}
	}
	return &ebsp.Job{
		Name:        "load",
		StateTables: []string{"job_state"},
		Compute:     ebsp.ComputeFunc(func(*ebsp.Context) bool { return false }),
		Loaders:     append(loaders, &ebsp.StateLoader{Tab: 0, States: states}),
		MaxSteps:    1,
	}
}

// runLoads runs every bulk load on store and returns one digest line per
// table it leaves, in a fixed order.
func runLoads(t *testing.T, store kvstore.Store) string {
	t.Helper()
	var sb bytes.Buffer
	digest := func(label, table string) {
		fmt.Fprintf(&sb, "%s %x\n", label, sha256.Sum256(tableBytes(t, store, table)))
	}

	dg, err := workload.PowerLawDirected(rand.New(rand.NewSource(5)), 300, 2000, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := pagerank.LoadGraph(store, "pr", dg, loadParts)
	if err != nil {
		t.Fatal(err)
	}
	digest("LoadGraph", "pr")
	if err := pagerank.SeedRanks(tab); err != nil {
		t.Fatal(err)
	}
	digest("SeedRanks", "pr")

	ug, err := workload.PowerLawUndirected(rand.New(rand.NewSource(19)), 120, 480, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sssp.NewSelective(ebsp.NewEngine(store), "sel", 0, loadParts).Init(ug); err != nil {
		t.Fatal(err)
	}
	digest("Selective.Init", "sel")
	if err := sssp.NewFullScan(ebsp.NewEngine(store), "fs", 0, loadParts).Init(ug); err != nil {
		t.Fatal(err)
	}
	digest("FullScan.Init", "fs")

	if _, err := store.CreateTable("job_state", kvstore.WithParts(loadParts)); err != nil {
		t.Fatal(err)
	}
	// A ubiquitous state table takes its states too, though no agent can
	// run at it.
	if _, err := store.CreateTable("job_ubiq", kvstore.Ubiquitous()); err != nil {
		t.Fatal(err)
	}
	ubiq := map[any]any{"a": 1, "b": 2, "c": 3}
	job := stateJob(50, &ebsp.StateLoader{Tab: 1, States: ubiq})
	job.StateTables = append(job.StateTables, "job_ubiq")
	if _, err := ebsp.NewEngine(store).Run(job); err != nil {
		t.Fatal(err)
	}
	digest("StateLoader", "job_state")
	ut, _ := store.LookupTable("job_ubiq")
	if got, err := kvstore.Dump(ut); err != nil || !reflect.DeepEqual(got, ubiq) {
		t.Errorf("ubiquitous state table holds %v, %v; want %v", got, err, ubiq)
	}
	return sb.String()
}

// tableBytes is every pair of table, codec-encoded, in key order across parts.
func tableBytes(t *testing.T, store kvstore.Store, table string) []byte {
	t.Helper()
	tab, ok := store.LookupTable(table)
	if !ok {
		t.Fatalf("table %q missing", table)
	}
	var pairs [][2][]byte
	for p := 0; p < tab.Parts(); p++ {
		_, err := store.RunAgent(table, p, func(sv kvstore.ShardView) (any, error) {
			pv, err := sv.View(table)
			if err != nil {
				return nil, err
			}
			return nil, pv.EnumerateOrdered(func(k, v any) (bool, error) {
				ek, err := codec.Encode(k)
				if err != nil {
					return true, err
				}
				ev, err := codec.Encode(v)
				if err != nil {
					return true, err
				}
				pairs = append(pairs, [2][]byte{ek, ev})
				return false, nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return bytes.Compare(pairs[i][0], pairs[j][0]) < 0 })
	var out []byte
	for _, kv := range pairs {
		out = fmt.Appendf(out, "%d:%x=%x\n", len(kv[0]), kv[0], kv[1])
	}
	return out
}

// dialFleet serves n in-process part-servers on loopback sockets and dials
// them with two replicas.
func dialFleet(t *testing.T, n int, opts ...netstore.Option) *netstore.Client {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := netstore.NewServer()
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close() })
		addrs[i] = ln.Addr().String()
	}
	c, err := netstore.Dial(addrs, append([]netstore.Option{netstore.WithReplicas(2)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestLoadGolden pins the tables every bulk load leaves, on every store. The
// pins were recorded with per-key table-handle loads; any way of loading
// must reproduce them byte for byte.
func TestLoadGolden(t *testing.T) {
	const want = `LoadGraph b919c9a244a3ab9cfb4b485c81bf0a5daf0752abf7e1e988acffe01e730dd16f
SeedRanks c71d3d181f13b5e3b1eda4bf469046cbf2a153431da5dfbbc1f527c80e90a39b
Selective.Init f7e04586ba920add8dfb1774f9d45aa1d1db9bcc57bf180eae1e071ab58b4a8c
FullScan.Init 74d9f881121337da42dc397d544ad6d13c64326fdb4252a4ebfaf9f73cc95b38
StateLoader c77c386c5004d440cae501031c5ac43de0aeb6caa18c03902e9c5f4fd337ab77
`
	mem := memstore.New(memstore.WithParts(loadParts))
	t.Cleanup(func() { _ = mem.Close() })
	golden := runLoads(t, mem)
	if golden != want {
		t.Errorf("memstore tables:\n%s\nwant:\n%s", golden, want)
	}

	disk, err := diskstore.New(t.TempDir(), diskstore.WithParts(loadParts))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		name  string
		store kvstore.Store
	}{
		{"gridstore", gridstore.New(gridstore.WithParts(loadParts), gridstore.WithReplicas(2))},
		{"diskstore", disk},
		{"netstore", dialFleet(t, 3)},
	} {
		t.Run(s.name, func(t *testing.T) {
			t.Cleanup(func() { _ = s.store.Close() })
			if got := runLoads(t, s.store); got != golden {
				t.Errorf("tables differ from memstore's:\n%s\nmemstore:\n%s", got, golden)
			}
		})
	}
}

// countingStore counts, while armed, the table-handle Put/Delete calls and
// the agents per (table, part) a load asks of a store. An SSSP Init's first
// wave opens by creating its job's private transport table, so counting
// stops at the first CreateTable of an engine-private table after arm.
type countingStore struct {
	kvstore.Store
	mu           sync.Mutex
	counting     bool
	handleWrites int
	agents       map[string]int // "table/part" -> agents run
}

func (s *countingStore) arm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counting, s.handleWrites, s.agents = true, 0, map[string]int{}
}

func (s *countingStore) disarm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counting = false
}

func (s *countingStore) agent(table string, part int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counting {
		s.agents[fmt.Sprintf("%s/%d", table, part)]++
	}
}

func (s *countingStore) CreateTable(name string, opts ...kvstore.TableOption) (kvstore.Table, error) {
	if strings.HasPrefix(name, "__ebsp.") {
		s.disarm()
	}
	t, err := s.Store.CreateTable(name, opts...)
	if err != nil {
		return nil, err
	}
	return &countingTable{Table: t, s: s}, nil
}

func (s *countingStore) LookupTable(name string) (kvstore.Table, bool) {
	t, ok := s.Store.LookupTable(name)
	if !ok {
		return nil, false
	}
	return &countingTable{Table: t, s: s}, true
}

func (s *countingStore) RunAgent(table string, part int, agent kvstore.Agent) (any, error) {
	s.agent(table, part)
	return s.Store.RunAgent(table, part, agent)
}

type countingTable struct {
	kvstore.Table
	s *countingStore
}

func (t *countingTable) write() {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.s.counting {
		t.s.handleWrites++
	}
}

func (t *countingTable) Put(key, value any) error {
	t.write()
	return t.Table.Put(key, value)
}

func (t *countingTable) Delete(key any) error {
	t.write()
	return t.Table.Delete(key)
}

// EnumerateParts runs one agent on every part of the table.
func (t *countingTable) EnumerateParts(c kvstore.PartConsumer) (any, error) {
	for p := 0; p < t.Parts(); p++ {
		t.s.agent(t.Name(), p)
	}
	return t.Table.EnumerateParts(c)
}

// TestLoadBudget is the counter gate on the bulk loads: each enters the
// store through at most one agent per (table, touched part) and never
// through a table handle. Every load here touches all of its table's parts.
// The engine's load writes a deep copy of each state in PutState order, so
// the last put of a key wins and the loader keeps ownership of its values.
func TestLoadBudget(t *testing.T) {
	mem := memstore.New(memstore.WithParts(loadParts))
	t.Cleanup(func() { _ = mem.Close() })
	store := &countingStore{Store: mem}
	dg, err := workload.PowerLawDirected(rand.New(rand.NewSource(5)), 300, 2000, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	ug, err := workload.PowerLawUndirected(rand.New(rand.NewSource(19)), 120, 480, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateTable("job_state", kvstore.WithParts(loadParts)); err != nil {
		t.Fatal(err)
	}
	last := []int32{-1}
	var pr kvstore.Table
	for _, tc := range []struct {
		name, table string
		load        func() error // arms the store where its load begins
	}{
		{"LoadGraph", "pr", func() (err error) {
			store.arm()
			pr, err = pagerank.LoadGraph(store, "pr", dg, loadParts)
			return err
		}},
		{"SeedRanks", "pr", func() error {
			store.arm()
			return pagerank.SeedRanks(pr)
		}},
		{"Selective.Init", "sel", func() error {
			store.arm()
			return sssp.NewSelective(ebsp.NewEngine(store), "sel", 0, loadParts).Init(ug)
		}},
		{"FullScan.Init", "fs", func() error {
			store.arm()
			return sssp.NewFullScan(ebsp.NewEngine(store), "fs", 0, loadParts).Init(ug)
		}},
		{"engine load", "job_state", func() error {
			// Loaders run in order, before the engine writes what they put:
			// arm first, then 50 keys, then key 7 again.
			arm := ebsp.LoaderFunc(func(*ebsp.LoadContext) error { store.arm(); return nil })
			again := ebsp.LoaderFunc(func(lc *ebsp.LoadContext) error { lc.PutState(0, 7, last); return nil })
			job := stateJob(50, arm)
			job.Loaders = append(job.Loaders, again)
			_, err := ebsp.NewEngine(store).Run(job)
			return err
		}},
	} {
		if err := tc.load(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		store.disarm()
		if store.handleWrites != 0 {
			t.Errorf("%s: %d table-handle Put/Delete calls, want 0", tc.name, store.handleWrites)
		}
		var want []string
		for p := 0; p < loadParts; p++ {
			want = append(want, fmt.Sprintf("%s/%d", tc.table, p))
		}
		got := slices.Sorted(maps.Keys(store.agents))
		if !slices.Equal(got, want) {
			t.Errorf("%s: agents ran on %v, want one on each of %v", tc.name, got, want)
		}
		for at, n := range store.agents {
			if n > 1 {
				t.Errorf("%s: %d agents on %s, want 1", tc.name, n, at)
			}
		}
	}

	last[0] = 99 // the stored copy must not follow
	tab, _ := mem.LookupTable("job_state")
	if v, ok, err := tab.Get(7); err != nil || !ok || !slices.Equal(v.([]int32), []int32{-1}) {
		t.Errorf("key 7 put twice reads %v, %v, %v; want the last put, [-1]", v, ok, err)
	}
}
