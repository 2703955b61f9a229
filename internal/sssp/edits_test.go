package sssp

// Tests of how a change batch edits the stored graph: a golden run pinned
// across every store, a budget on what the edits cost at the store boundary,
// and the RPC count of one batch over a part-server fleet.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net"
	"runtime"
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
	"ripple/internal/metrics"
	"ripple/internal/netstore"
	"ripple/internal/workload"
)

// batchDriver is what the two variants have in common.
type batchDriver interface {
	Init(g *workload.UndirectedGraph) error
	ApplyBatch(batch []workload.Change) (*BatchStats, error)
}

const goldenVertices, goldenEdges, goldenParts = 120, 480, 6

// goldenBatches is 20 seeded change batches followed by one hand-built batch
// that hits every edit rule once.
func goldenBatches(t *testing.T, g *workload.UndirectedGraph) [][]workload.Change {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	var batches [][]workload.Change
	for i := 0; i < 20; i++ {
		batches = append(batches, workload.ChangeBatch(rng, goldenVertices, 15, 1.3, 0.45))
	}
	// Replay the seeded batches on a mirror to pick an edge present and two
	// edges absent when the hand-built batch runs.
	mirror := cloneGraph(g)
	for _, b := range batches {
		for _, c := range b {
			mirror.Apply(c)
		}
	}
	present := [2]int{-1, -1}
	var absent [][2]int
	for u := 10; u < goldenVertices && (present[0] < 0 || len(absent) < 3); u++ {
		for v := u + 1; v < goldenVertices; v++ {
			_, has := mirror.Adj[u][int32(v)]
			switch {
			case has && present[0] < 0:
				present = [2]int{u, v}
			case !has && len(absent) < 3:
				absent = append(absent, [2]int{u, v})
			}
		}
	}
	if present[0] < 0 || len(absent) < 3 {
		t.Fatal("mirror graph has no edge to pick")
	}
	add := func(e [2]int) workload.Change { return workload.Change{Kind: workload.AddEdge, U: e[0], V: e[1]} }
	rm := func(e [2]int) workload.Change { return workload.Change{Kind: workload.RemoveEdge, U: e[0], V: e[1]} }
	n := goldenVertices
	return append(batches, []workload.Change{
		add(absent[0]), add(absent[0]), // duplicate add
		add(absent[1]), rm(absent[1]), // add then remove
		rm(present), add(present), // remove then add
		rm(absent[2]),                         // remove of an absent edge
		add([2]int{7, 7}),                     // self-loop
		add([2]int{-1, 5}), rm([2]int{5, -2}), // negative IDs
		add([2]int{2, n}), rm([2]int{n + 5, 2}), // IDs past the last vertex
	})
}

// runGolden drives both variants through the golden batches on store and
// returns every batch's stats and a digest of both final tables.
func runGolden(t *testing.T, store kvstore.Store) (stats string, digest string) {
	t.Helper()
	g := genGraph(t, goldenVertices, goldenEdges, 19)
	batches := goldenBatches(t, g)
	drivers := map[string]batchDriver{
		"sel": NewSelective(ebsp.NewEngine(store), "golden_sel", 0, goldenParts),
		"fs":  NewFullScan(ebsp.NewEngine(store), "golden_fs", 0, goldenParts),
	}
	var sb strings.Builder
	for _, name := range []string{"sel", "fs"} {
		drv := drivers[name]
		if err := drv.Init(cloneGraph(g)); err != nil {
			t.Fatalf("%s init: %v", name, err)
		}
		mirror := cloneGraph(g)
		for i, b := range batches {
			st, err := drv.ApplyBatch(b)
			if err != nil {
				t.Fatalf("%s batch %d: %v", name, i, err)
			}
			fmt.Fprintf(&sb, "%s %d %+v\n", name, i, *st)
			for _, c := range b {
				mirror.Apply(c)
			}
		}
		got, err := drv.(interface{ Distances() (map[int]int32, error) }).Distances()
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, name, got, mirror, 0)
	}
	h := sha256.New()
	for _, table := range []string{"golden_sel", "golden_fs"} {
		fmt.Fprintf(h, "%s\n", table)
		h.Write(tableBytes(t, store, table))
	}
	return sb.String(), fmt.Sprintf("%x", h.Sum(nil))
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

// startFleet serves n in-process part-servers on loopback sockets.
func startFleet(t *testing.T, n int) []string {
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
	return addrs
}

func dialFleet(t *testing.T, n int, opts ...netstore.Option) *netstore.Client {
	t.Helper()
	c, err := netstore.Dial(startFleet(t, n), append([]netstore.Option{netstore.WithReplicas(2)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestBatchEditsGolden pins both variants' batch stats and final tables over
// the golden batches, on every store. The pins were recorded with the
// per-change table-handle edits; any way of applying a batch must reproduce
// them, including the append order of each vertex's neighbour list.
func TestBatchEditsGolden(t *testing.T) {
	const (
		wantStats  = "c034b0ab0ae2b64c3a037682c8b5cb863ab8375d70f3ef5079fdda7f914bbc53"
		wantDigest = "2fc43c782b15fd3cfaedef776f695bf3a02a8e663e71242f68d99c2834926b64"
	)
	mem := memstore.New(memstore.WithParts(goldenParts))
	t.Cleanup(func() { _ = mem.Close() })
	stats, digest := runGolden(t, mem)
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(stats))); got != wantStats {
		t.Errorf("memstore batch stats digest %s, want %s; stats:\n%s", got, wantStats, stats)
	}
	if digest != wantDigest {
		t.Errorf("memstore table digest %s, want %s", digest, wantDigest)
	}

	disk, err := diskstore.New(t.TempDir(), diskstore.WithParts(goldenParts))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = disk.Close() })
	for _, s := range []struct {
		name  string
		store kvstore.Store
	}{
		{"gridstore", gridstore.New(gridstore.WithParts(goldenParts), gridstore.WithReplicas(2))},
		{"diskstore", disk},
		{"netstore", dialFleet(t, 3)},
	} {
		t.Run(s.name, func(t *testing.T) {
			t.Cleanup(func() { _ = s.store.Close() })
			gotStats, gotDigest := runGolden(t, s.store)
			if gotStats != stats {
				t.Errorf("batch stats differ from memstore's:\n%s\nmemstore:\n%s", gotStats, stats)
			}
			if gotDigest != digest {
				t.Errorf("table digest %s, memstore's %s", gotDigest, digest)
			}
		})
	}
}

// countingStore counts what a change batch's edits ask of a store: the
// RunAgent calls, the Get/Put/Delete calls on every table handle it hands
// out, and the collector's counters. Every update wave opens by creating its
// job's private transport table, so counting stops at the first CreateTable
// after arm: what it counts is the batch's edits, before any wave runs.
type countingStore struct {
	kvstore.Store
	m                 *metrics.Collector
	mu                sync.Mutex
	counting          bool
	agents, handleOps int
	armed, edits      metrics.Snapshot
}

func (s *countingStore) arm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counting, s.agents, s.handleOps = true, 0, 0
	s.armed = s.m.Snapshot()
}

func (s *countingStore) count(n *int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counting {
		*n++
	}
}

func (s *countingStore) CreateTable(name string, opts ...kvstore.TableOption) (kvstore.Table, error) {
	s.mu.Lock()
	if s.counting {
		s.counting, s.edits = false, s.m.Snapshot().Sub(s.armed)
	}
	s.mu.Unlock()
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
	s.count(&s.agents)
	return s.Store.RunAgent(table, part, agent)
}

type countingTable struct {
	kvstore.Table
	s *countingStore
}

func (t *countingTable) Get(key any) (any, bool, error) {
	t.s.count(&t.s.handleOps)
	return t.Table.Get(key)
}

func (t *countingTable) Put(key, value any) error {
	t.s.count(&t.s.handleOps)
	return t.Table.Put(key, value)
}

func (t *countingTable) Delete(key any) error {
	t.s.count(&t.s.handleOps)
	return t.Table.Delete(key)
}

// touchedParts counts the parts holding a valid endpoint of batch.
func touchedParts(t *testing.T, store kvstore.Store, table string, batch []workload.Change) int {
	t.Helper()
	tab, ok := store.LookupTable(table)
	if !ok {
		t.Fatalf("table %q missing", table)
	}
	parts := map[int]bool{}
	for _, c := range batch {
		if c.U != c.V && c.U >= 0 && c.V >= 0 {
			parts[tab.PartOf(c.U)], parts[tab.PartOf(c.V)] = true, true
		}
	}
	return len(parts)
}

// hubGraph is a power-law graph and its best-connected vertex, the shape of
// the sssp.incr.mem benchmark workload.
func hubGraph(t *testing.T, vertices, edges int) (*workload.UndirectedGraph, int) {
	t.Helper()
	g := genGraph(t, vertices, edges, 3)
	source := 0
	for u := range g.Adj {
		if len(g.Adj[u]) > len(g.Adj[source]) {
			source = u
		}
	}
	return g, source
}

// TestBatchEditBudget is the counter gate on a change batch's edits: they
// reach the stored graph through part agents — one read and one write per
// touched part — and never through table handles, so they marshal nothing.
// How the edits are made does not change what the update waves do: steps
// and compute invocations are pinned exactly.
func TestBatchEditBudget(t *testing.T) {
	for _, tc := range []struct {
		name             string
		vertices, edges  int
		steps, compute   int64
		parentMarshalled int64 // of the whole batch; 0: not gated
		newDriver        func(e *ebsp.Engine, source int) batchDriver
	}{
		// Average degree 53: the benchmark's states, which grow from an
		// average of 36 as its batches add edges, at a size that builds in
		// about a second.
		// With one table-handle Get and Put per endpoint per change, the
		// edits made 226 table-handle calls and the batch marshalled 37957
		// bytes, 275 of them the waves' own.
		{"selective", 1500, 40000, 2, 38, 37957,
			func(e *ebsp.Engine, source int) batchDriver { return NewSelective(e, "g", source, 6) }},
		// A smaller graph, for every full-scan wave scans all of it. Its
		// per-change edits made 262 table-handle calls.
		{"fullscan", 1000, 18000, 4, 4000, 0,
			func(e *ebsp.Engine, source int) batchDriver { return NewFullScan(e, "g", source, 6) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, source := hubGraph(t, tc.vertices, tc.edges)
			batch := workload.ChangeBatch(rand.New(rand.NewSource(1)), g.NumVertices, 100, 1.3, 0.5)
			m := &metrics.Collector{}
			mem := memstore.New(memstore.WithParts(6), memstore.WithMetrics(m))
			t.Cleanup(func() { _ = mem.Close() })
			store := &countingStore{Store: mem, m: m}
			drv := tc.newDriver(ebsp.NewEngine(store, ebsp.WithMetrics(m)), source)
			if err := drv.Init(g); err != nil {
				t.Fatal(err)
			}
			parts := touchedParts(t, mem, "g", batch)
			before := m.Snapshot()
			store.arm()
			if _, err := drv.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
			d := m.Snapshot().Sub(before)
			t.Logf("edits: %d agents over %d touched parts, %d table-handle calls, %d B marshalled; batch: %d B marshalled, %d steps, %d compute invocations",
				store.agents, parts, store.handleOps, store.edits.MarshalledBytes, d.MarshalledBytes, d.Steps, d.ComputeInvocations)
			if store.handleOps != 0 {
				t.Errorf("edits made %d table-handle Get/Put/Delete calls, want 0", store.handleOps)
			}
			if store.agents > 2*parts {
				t.Errorf("edits ran %d agents, want at most %d (2 x %d touched parts)", store.agents, 2*parts, parts)
			}
			if store.edits.MarshalledBytes != 0 {
				t.Errorf("edits marshalled %d B, want 0", store.edits.MarshalledBytes)
			}
			if d.Steps != tc.steps || d.ComputeInvocations != tc.compute {
				t.Errorf("steps %d, compute invocations %d; want %d, %d", d.Steps, d.ComputeInvocations, tc.steps, tc.compute)
			}
			if tc.parentMarshalled > 0 && d.MarshalledBytes*100 > tc.parentMarshalled {
				t.Errorf("batch marshalled %d B, want at most %d (a 100th of the per-change edits' %d)",
					d.MarshalledBytes, tc.parentMarshalled/100, tc.parentMarshalled)
			}
		})
	}
}

// TestSelectiveBatchRPCBudget pins the frame count of one seeded selective
// batch over a 3-server, 2-replica fleet, in the shape of netstore's
// TestPageRankRPCBudget: the conversation is deterministic, so a change
// that puts the edits back on per-key frames shows as an integer.
func TestSelectiveBatchRPCBudget(t *testing.T) {
	const (
		// The edits: one get_batch per touched part and one put_batch per
		// part per replica. With a per-key frame for every state read and
		// for every state write to each replica they made 127.
		parentEditCalls, editCalls = 127, 18
		// The whole batch: the two update waves' 218 frames are the rest
		// and did not change. With the per-change edits it made 345.
		batchCalls = 236
	)
	g := genGraph(t, 300, 2400, 23)
	batch := workload.ChangeBatch(rand.New(rand.NewSource(2)), g.NumVertices, 40, 1.3, 0.5)
	m := &metrics.Collector{}
	c := dialFleet(t, 3, netstore.WithMetrics(m))
	store := &countingStore{Store: c, m: m}
	drv := NewSelective(ebsp.NewEngine(store, ebsp.WithMQ(c.Queuing())), "sel", 0, 6)
	if err := drv.Init(cloneGraph(g)); err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	store.arm()
	if _, err := drv.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	d := m.Snapshot().Sub(before)
	t.Logf("rpc_calls: edits %d, batch %d", store.edits.RPCCalls, d.RPCCalls)
	if store.edits.RPCCalls != editCalls || d.RPCCalls != batchCalls {
		t.Errorf("rpc_calls: edits %d, batch %d; want %d, %d", store.edits.RPCCalls, d.RPCCalls, editCalls, batchCalls)
	}
	if store.edits.RPCCalls*5 > parentEditCalls {
		t.Errorf("edits made %d rpc calls, want at most a fifth of the per-change edits' %d", store.edits.RPCCalls, parentEditCalls)
	}
	if d.RPCRetries != 0 {
		t.Errorf("rpc_retries = %d on a fault-free loopback run", d.RPCRetries)
	}
	mirror := cloneGraph(g)
	for _, ch := range batch {
		mirror.Apply(ch)
	}
	got, err := drv.Distances()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, "fleet selective", got, mirror, 0)
}

// hubBatch is a star around vertex 0 with hubDegree edges, plus 50 vertices
// outside it, and a 100-change batch in which every change touches the hub:
// it adds an edge to each outside vertex and removes 50 of the star's edges,
// alternately.
func hubBatch(hubDegree int) (*workload.UndirectedGraph, []workload.Change) {
	g := workload.NewUndirected(hubDegree + 51)
	for v := 1; v <= hubDegree; v++ {
		g.AddEdge(0, v)
	}
	var batch []workload.Change
	for i := 0; i < 50; i++ {
		batch = append(batch,
			workload.Change{Kind: workload.AddEdge, U: 0, V: hubDegree + 1 + i},
			workload.Change{Kind: workload.RemoveEdge, U: 0, V: 1 + i})
	}
	return g, batch
}

// TestBatchEditAllocBudget gates what a batch's edits allocate: a state the
// batch changes is copied once per batch, not once per change. Every change
// of the batch touches the hub, so copying it per change allocates about
// 100 times its lists' bytes; the budget is 8 times. TotalAlloc counts the
// whole process, so the test must not run in parallel.
func TestBatchEditAllocBudget(t *testing.T) {
	const hubDegree = 4000
	g, batch := hubBatch(hubDegree)
	for _, tc := range []struct {
		name      string
		hubBytes  uint64 // of the hub's Nbrs plus, for SelState, NbrDist
		newDriver func(e *ebsp.Engine) batchDriver
		edit      func(kvstore.Store, string, []workload.Change) (*BatchStats, []workload.Change, error)
	}{
		{"selective", 8 * hubDegree, func(e *ebsp.Engine) batchDriver { return NewSelective(e, "g", 0, 6) }, editGraph[SelState]},
		{"fullscan", 4 * hubDegree, func(e *ebsp.Engine) batchDriver { return NewFullScan(e, "g", 0, 6) }, editGraph[FsState]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := memstore.New(memstore.WithParts(6))
			t.Cleanup(func() { _ = mem.Close() })
			if err := tc.newDriver(ebsp.NewEngine(mem)).Init(cloneGraph(g)); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, applied, err := tc.edit(mem, "g", batch)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if len(applied) != len(batch) {
				t.Fatalf("%d of %d changes applied", len(applied), len(batch))
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("edits allocated %d B, %.1fx the hub's %d B", alloc, float64(alloc)/float64(tc.hubBytes), tc.hubBytes)
			if alloc > 8*tc.hubBytes {
				t.Errorf("edits allocated %d B, want at most %d (8 x the hub's %d B)", alloc, 8*tc.hubBytes, tc.hubBytes)
			}
		})
	}
}

// TestBatchEditLeavesStoredValuesAlone is the net under the in-place edits:
// memstore and gridstore hand out the stored values themselves, and a batch
// must edit only its own copies of them. The batch adds, removes and re-adds
// one hub edge and removes then re-adds another; the table it leaves must
// equal the batch replayed one change at a time, each edit on a fresh copy.
func TestBatchEditLeavesStoredValuesAlone(t *testing.T) {
	g, hub := hubGraph(t, 300, 2400)
	absent, present := -1, -1
	for v := 0; v < g.NumVertices && (absent < 0 || present < 0); v++ {
		switch {
		case v == hub:
		case g.HasEdge(hub, v) && present < 0:
			present = v
		case !g.HasEdge(hub, v) && absent < 0:
			absent = v
		}
	}
	add := func(v int) workload.Change { return workload.Change{Kind: workload.AddEdge, U: hub, V: v} }
	rm := func(v int) workload.Change { return workload.Change{Kind: workload.RemoveEdge, U: hub, V: v} }
	batch := []workload.Change{add(absent), rm(absent), add(absent), rm(present), add(present)}
	for _, s := range []struct {
		name     string
		newStore func() kvstore.Store
	}{
		{"memstore", func() kvstore.Store { return memstore.New(memstore.WithParts(6)) }},
		{"gridstore", func() kvstore.Store { return gridstore.New(gridstore.WithParts(6), gridstore.WithReplicas(2)) }},
	} {
		t.Run(s.name+"/selective", func(t *testing.T) {
			store := s.newStore()
			t.Cleanup(func() { _ = store.Close() })
			if err := NewSelective(ebsp.NewEngine(store), "g", hub, 6).Init(cloneGraph(g)); err != nil {
				t.Fatal(err)
			}
			checkStoredValuesAlone[SelState](t, store, batch)
		})
		t.Run(s.name+"/fullscan", func(t *testing.T) {
			store := s.newStore()
			t.Cleanup(func() { _ = store.Close() })
			if err := NewFullScan(ebsp.NewEngine(store), "g", hub, 6).Init(cloneGraph(g)); err != nil {
				t.Fatal(err)
			}
			checkStoredValuesAlone[FsState](t, store, batch)
		})
	}
}

// checkStoredValuesAlone runs batch's edits on table "g" of store and checks
// that every value the store handed out before is unchanged and that the
// table equals a per-change reference replay.
func checkStoredValuesAlone[S edgeLists[S]](t *testing.T, store kvstore.Store, batch []workload.Change) {
	t.Helper()
	tab, ok := store.LookupTable("g")
	if !ok {
		t.Fatal("table g missing")
	}
	held, err := kvstore.Dump(tab)
	if err != nil {
		t.Fatal(err)
	}
	copies := make(map[any]any, len(held))
	for k, v := range held {
		if copies[k], err = codec.DeepCopy(v); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := editGraph[S](store, "g", batch); err != nil {
		t.Fatal(err)
	}
	for k, v := range held {
		if !sameEncoding(t, v, copies[k]) {
			t.Errorf("vertex %v: the value held before the batch changed to %+v, was %+v", k, v, copies[k])
		}
	}

	ref := make(map[int]S, len(copies))
	for k, v := range copies {
		ref[k.(int)] = v.(S)
	}
	fresh := func(s S) S {
		c, err := codec.DeepCopy(s)
		if err != nil {
			t.Fatal(err)
		}
		return c.(S)
	}
	for _, c := range batch {
		su, sv := ref[c.U], ref[c.V]
		i := indexOf(su.nbrs(), int32(c.V))
		switch {
		case c.Kind == workload.AddEdge && i < 0:
			ref[c.U], ref[c.V] = fresh(su).linked(int32(c.V), sv), fresh(sv).linked(int32(c.U), su)
		case c.Kind == workload.RemoveEdge && i >= 0:
			ref[c.U], ref[c.V] = fresh(su).unlinked(i), fresh(sv).unlinked(indexOf(sv.nbrs(), int32(c.U)))
		}
	}
	got, err := kvstore.Dump(tab)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("%d states after the batch, want %d", len(got), len(ref))
	}
	for k, v := range got {
		if want := ref[k.(int)]; !sameEncoding(t, v, want) {
			t.Errorf("vertex %v after the batch: %+v, want %+v", k, v, want)
		}
	}
}

// sameEncoding reports whether a and b encode to the same bytes, the
// equality a table digest sees: a nil and an empty list are the same.
func sameEncoding(t *testing.T, a, b any) bool {
	t.Helper()
	ea, err := codec.Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := codec.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ea, eb)
}
