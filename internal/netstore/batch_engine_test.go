package netstore_test

// Engine-level checks of agent-scoped batching over a loopback fleet: whole
// jobs still match their in-process results in every execution mode and
// under wire chaos with a part-server kill, a replica never holds part of a
// batch, and the RPC count of a fixed PageRank stays inside a budget.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"ripple/internal/chaos"
	"ripple/internal/ebsp"
	"ripple/internal/kvstore"
	"ripple/internal/memstore"
	"ripple/internal/metrics"
	"ripple/internal/netstore"
	"ripple/internal/pagerank"
	"ripple/internal/workload"
)

// loopFleet is n part-servers inside the test process, on real sockets.
type loopFleet struct {
	t       *testing.T
	mu      sync.Mutex
	addrs   []string
	servers []*netstore.Server
}

func startLoopFleet(t *testing.T, n int) *loopFleet {
	t.Helper()
	f := &loopFleet{t: t, addrs: make([]string, n), servers: make([]*netstore.Server, n)}
	for i := range f.servers {
		f.serve(i, "127.0.0.1:0")
	}
	t.Cleanup(func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, srv := range f.servers {
			_ = srv.Close()
		}
	})
	return f
}

// serve puts a fresh, empty server in slot i.
func (f *loopFleet) serve(i int, addr string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		f.t.Errorf("listen %s: %v", addr, err)
		return
	}
	srv := netstore.NewServer()
	f.mu.Lock()
	f.addrs[i], f.servers[i] = ln.Addr().String(), srv
	f.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
}

// kill closes server i; with respawn it comes back empty on the same
// address once the client has counted the death (see the serve package's
// fleet for why not sooner).
func (f *loopFleet) kill(i int, failovers func() int64, respawn bool) {
	f.mu.Lock()
	victim, addr := f.servers[i], f.addrs[i]
	f.mu.Unlock()
	before := failovers()
	_ = victim.Close()
	if !respawn {
		return
	}
	deadline := time.Now().Add(30 * time.Second)
	for failovers() == before {
		if time.Now().After(deadline) {
			f.t.Error("the client never sensed the kill")
			return
		}
		time.Sleep(time.Millisecond)
	}
	f.serve(i, addr)
}

func (f *loopFleet) dial(inj *chaos.Injector, opts ...netstore.Option) *netstore.Client {
	f.t.Helper()
	opts = append([]netstore.Option{
		netstore.WithReplicas(2),
		netstore.WithHeartbeat(25*time.Millisecond, 2),
		netstore.WithRequestTimeout(100 * time.Millisecond),
		netstore.WithRetries(10),
		netstore.WithBackoffSeed(3),
	}, opts...)
	if inj != nil {
		opts = append(opts, netstore.WithWireInjector(inj))
	}
	c, err := netstore.Dial(f.addrs, opts...)
	if err != nil {
		f.t.Fatalf("dial fleet: %v", err)
	}
	f.t.Cleanup(func() { _ = c.Close() })
	return c
}

// wireChaos is every rate-based wire class at once plus one server kill.
func wireChaos(killAfter int64) chaos.Schedule {
	return chaos.Schedule{
		Seed:        9,
		NetDropRate: 0.003, NetLossRate: 0.003, NetDupRate: 0.05,
		NetDelay: 200 * time.Microsecond, NetDelayRate: 0.05,
		NetKills: []chaos.NetKill{{Server: 1, AfterFrames: killAfter}},
	}
}

// TestBatchedJobUnderWireChaos: the SSSP full-scan workload — state written
// through agent part views, so through batch flushes — over a fleet that
// loses, duplicates and delays frames and has one server killed and
// respawned empty mid-run, ends byte-identical to the memstore run.
func TestBatchedJobUnderWireChaos(t *testing.T) {
	g, err := workload.PowerLawUndirected(rand.New(rand.NewSource(7)), 200, 900, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	changes := soakChanges(g)
	ms := memstore.New(memstore.WithParts(6))
	defer func() { _ = ms.Close() }()
	want := runFullScan(t, ms, g, changes)

	fleet := startLoopFleet(t, 3)
	inj := chaos.NewInjector(wireChaos(400))
	var c *netstore.Client
	// Fires from the client's send path, so c is set by then.
	inj.OnNetKill(func(server int) { fleet.kill(server, c.Failovers, true) })
	c = fleet.dial(inj)

	got := runFullScan(t, c, g, changes)
	if !bytes.Equal(got, want) {
		t.Fatalf("networked run under wire chaos diverged from the in-process run: %d vs %d bytes", len(got), len(want))
	}
	if c.Failovers() == 0 {
		t.Error("no failover sensed — the kill never disturbed the run")
	}
	kinds := map[string]int{}
	for _, r := range inj.Records() {
		kinds[r.Kind]++
	}
	for _, kind := range []string{"netkill", "net.drop", "net.loss", "net.dup", "net.delay"} {
		if kinds[kind] == 0 {
			t.Errorf("no %s fault fired (records: %v)", kind, kinds)
		}
	}
}

// TestBatchIsAtomicPerReplica: agents rewrite one part's key group to a new
// generation per invocation while frames are lost, duplicated and delayed
// and a replica's server dies mid-flush. Whatever each surviving server
// ended up holding for a part, it is one generation — a whole batch or none
// of it — and the part's readers see the last acknowledged one.
func TestBatchIsAtomicPerReplica(t *testing.T) {
	const parts, group, generations = 4, 8, 60
	fleet := startLoopFleet(t, 3)
	inj := chaos.NewInjector(wireChaos(60))
	var c *netstore.Client
	inj.OnNetKill(func(server int) { fleet.kill(server, c.Failovers, false) })
	c = fleet.dial(inj)
	tbl, err := c.CreateTable("gen", kvstore.WithParts(parts))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]int, parts)
	for k := 0; ; k++ {
		p := tbl.PartOf(k)
		if len(keys[p]) < group {
			keys[p] = append(keys[p], k)
		}
		full := true
		for _, ks := range keys {
			full = full && len(ks) == group
		}
		if full {
			break
		}
	}

	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for gen := 1; gen <= generations; gen++ {
				_, err := c.RunAgent("gen", p, func(sv kvstore.ShardView) (any, error) {
					view, err := sv.View("gen")
					if err != nil {
						return nil, err
					}
					for i, k := range keys[p] {
						// Even generations drop the group's odd members,
						// so a torn batch would also show as a wrong
						// member count.
						if gen%2 == 0 && i%2 == 1 {
							err = view.Delete(k)
						} else {
							err = view.Put(k, gen)
						}
						if err != nil {
							return nil, err
						}
					}
					return nil, nil
				})
				if err != nil {
					t.Errorf("part %d generation %d: %v", p, gen, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if c.Failovers() == 0 {
		t.Error("no failover sensed — the kill never disturbed the run")
	}

	// Read each surviving server's own copy through a client that knows
	// only that server, so every part resolves to it.
	for s, addr := range fleet.addrs {
		if s == 1 {
			continue // killed
		}
		solo, err := netstore.Dial([]string{addr}, netstore.WithReplicas(1))
		if err != nil {
			t.Fatalf("dial server %d alone: %v", s, err)
		}
		if _, ok := solo.LookupTable("gen"); !ok {
			t.Fatalf("server %d lost the table", s)
		}
		for p := 0; p < parts; p++ {
			held := map[int]int{} // generation -> members holding it
			_, err := solo.RunAgent("gen", p, func(sv kvstore.ShardView) (any, error) {
				view, err := sv.View("gen")
				if err != nil {
					return nil, err
				}
				return nil, view.Enumerate(func(_, v any) (bool, error) {
					held[v.(int)]++
					return false, nil
				})
			})
			if err != nil {
				t.Fatalf("server %d part %d: %v", s, p, err)
			}
			if len(held) > 1 {
				t.Errorf("server %d part %d holds a torn batch: generation -> members %v", s, p, held)
			}
			for gen, members := range held {
				if want := group / (1 + (gen+1)%2); members != want {
					t.Errorf("server %d part %d: generation %d has %d members, want %d", s, p, gen, members, want)
				}
			}
		}
		_ = solo.Close()
	}
	for p := 0; p < parts; p++ {
		for i, k := range keys[p] {
			v, ok, err := tbl.Get(k)
			if i%2 == 1 { // generations is even: odd members end deleted
				if err != nil || ok {
					t.Errorf("part %d key %d = %v %v %v, want deleted", p, k, v, ok, err)
				}
			} else if err != nil || !ok || v != generations {
				t.Errorf("part %d key %d = %v %v %v, want generation %d", p, k, v, ok, err, generations)
			}
		}
	}
}

// splitJob is a no-sync job (incremental): a count injected at key 0 splits
// down a binary tree, every component adding what passes through it to its
// state — read-modify-write through one long-lived agent per part.
func splitJob(table string) *ebsp.Job {
	return &ebsp.Job{
		Name:        "split",
		StateTables: []string{table},
		Properties:  ebsp.Properties{Incremental: true},
		Compute: ebsp.ComputeFunc(func(ctx *ebsp.Context) bool {
			for _, m := range ctx.InputMessages() {
				n := m.(int)
				cur := 0
				if v, ok := ctx.ReadState(0); ok {
					cur = v.(int)
				}
				ctx.WriteState(0, cur+n)
				if n > 1 {
					k := ctx.Key().(int)
					ctx.Send(2*k+1, n/2)
					ctx.Send(2*k+2, n-n/2)
				}
			}
			return false
		}),
		Loaders: []ebsp.Loader{&ebsp.MessageLoader{Messages: []ebsp.InitialMessage{{Key: 0, Message: 512}}}},
	}
}

// chainJob is a run-anywhere job (one-msg, no-continue, rare-state): a
// countdown walks the keys; each stolen compute writes its own state through
// the table handle and asks for a sibling's state to be created, which the
// next step's drain agent applies through its part view.
func chainJob(table string) *ebsp.Job {
	return &ebsp.Job{
		Name:        "chain",
		StateTables: []string{table},
		Properties:  ebsp.Properties{OneMsg: true, NoContinue: true, RareState: true},
		Compute: ebsp.ComputeFunc(func(ctx *ebsp.Context) bool {
			n := ctx.InputMessages()[0].(int)
			k := ctx.Key().(int)
			ctx.WriteState(0, n)
			ctx.CreateState(0, 1000+k, fmt.Sprint("sibling of ", k))
			if n > 0 {
				ctx.Send(k+1, n-1)
			}
			return false
		}),
		Loaders: []ebsp.Loader{&ebsp.MessageLoader{Messages: []ebsp.InitialMessage{
			{Key: 0, Message: 12}, {Key: 100, Message: 7}, {Key: 200, Message: 9},
		}}},
	}
}

// TestExecutionModesMatchInProcess: a no-sync job, whose worker agent lives
// (and buffers) for the whole run, and a run-anywhere job, whose drain agents
// write creates through part views while stolen computes write through table
// handles, leave the same tables over the fleet as over memstore.
func TestExecutionModesMatchInProcess(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(table string) *ebsp.Job
		check func(*testing.T, ebsp.Strategy)
	}{
		{"no-sync", splitJob, func(t *testing.T, s ebsp.Strategy) {
			if s.Sync {
				t.Error("expected no-sync execution")
			}
		}},
		{"run-anywhere", chainJob, func(t *testing.T, s ebsp.Strategy) {
			if !s.RunAnywhere {
				t.Error("expected run-anywhere execution")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(store kvstore.Store, opts ...ebsp.Option) map[any]any {
				t.Helper()
				res, err := ebsp.NewEngine(store, opts...).Run(tc.build("modes_state"))
				if err != nil {
					t.Fatalf("%s on %s: %v", tc.name, store.Name(), err)
				}
				tc.check(t, res.Strategy)
				tab, _ := store.LookupTable("modes_state")
				pairs, err := kvstore.Dump(tab)
				if err != nil {
					t.Fatal(err)
				}
				return pairs
			}
			ms := memstore.New(memstore.WithParts(4))
			defer func() { _ = ms.Close() }()
			want := run(ms)

			c := startLoopFleet(t, 3).dial(nil, netstore.WithDefaultParts(4))
			got := run(c, ebsp.WithMQ(c.Queuing()))
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("fleet run left %d pairs, in-process run %d; they differ", len(got), len(want))
			}
		})
	}
}

// TestPageRankRPCBudget is the counter guard on the batched path: a fixed
// PageRank over a 3-server, 2-replica fleet is a deterministic conversation,
// so its frame count is an integer a change can be held to. A change that
// puts the agent's reads or writes back on per-key frames lands far outside
// the budget (the per-key path made 2598 calls for this job); the SPI
// traffic above the wire — what the engine asked of the store — must not
// move at all.
func TestPageRankRPCBudget(t *testing.T) {
	const (
		vertices, edges, parts, iterations = 600, 4000, 6, 5

		// Measured 456: 6 get_batch (step 1's state reads, one per part),
		// 84 put_batch (per part-step: spill deletes plus the local spill,
		// and the last step's states, each to 2 replicas), ~310 put (the
		// cross-part spills, a table-level write per batch per replica),
		// the rest DDL, len and the drains' snapshots.
		rpcBudget  = 470
		storeGets  = vertices       // each vertex reads its structure once
		storePuts  = vertices + 186 // final states + spill batches
		storeDeles = 186            // every spill batch is drained once
	)
	g, err := workload.PowerLawDirected(rand.New(rand.NewSource(5)), vertices, edges, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	m := &metrics.Collector{}
	c := startLoopFleet(t, 3).dial(nil, netstore.WithMetrics(m))
	tab, err := pagerank.LoadGraph(c, "g", g, parts)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	e := ebsp.NewEngine(c, ebsp.WithMQ(c.Queuing()))
	if _, err := pagerank.RunDirect(e, pagerank.Config{GraphTable: "g", Iterations: iterations}); err != nil {
		t.Fatal(err)
	}
	after := m.Snapshot()

	if got := after.RPCCalls - before.RPCCalls; got > rpcBudget {
		t.Errorf("rpc_calls = %d, budget %d (by endpoint: %v)", got, rpcBudget, endpointCounts(m))
	} else {
		t.Logf("rpc_calls = %d of %d", got, rpcBudget)
	}
	if got := after.RPCRetries - before.RPCRetries; got != 0 {
		t.Errorf("rpc_retries = %d on a fault-free loopback run", got)
	}
	for _, counter := range []struct {
		name      string
		got, want int64
	}{
		{"store gets", after.StoreGets - before.StoreGets, storeGets},
		{"store puts", after.StorePuts - before.StorePuts, storePuts},
		{"store deletes", after.StoreDeletes - before.StoreDeletes, storeDeles},
	} {
		if counter.got != counter.want {
			t.Errorf("%s = %d, want %d: the engine's questions to the store changed", counter.name, counter.got, counter.want)
		}
	}

	ranks, err := pagerank.ReadRanks(tab)
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range pagerank.Reference(g, 0.85, iterations) {
		if d := ranks[v] - want; d > 1e-9 || d < -1e-9 {
			t.Fatalf("rank[%d] = %v, reference %v", v, ranks[v], want)
		}
	}
}

// TestLoadGraphRPCBudget pins the frame count of a graph load over a
// 3-server, 2-replica fleet: 3 frames of DDL for the table and one put_batch
// per part per replica, whatever the graph's size. Each loads as many store
// puts as it has vertices. Loaded one key at a time through the table
// handle, the two graphs made 1203 and 6603 frames.
func TestLoadGraphRPCBudget(t *testing.T) {
	const parts, rpcs = 6, 3 + 6*2
	for _, size := range []struct{ vertices, edges int }{{600, 4000}, {3300, 108000}} {
		g, err := workload.PowerLawDirected(rand.New(rand.NewSource(5)), size.vertices, size.edges, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		m := &metrics.Collector{}
		c := startLoopFleet(t, 3).dial(nil, netstore.WithMetrics(m))
		if _, err := pagerank.LoadGraph(c, "g", g, parts); err != nil {
			t.Fatal(err)
		}
		d := m.Snapshot()
		if d.RPCCalls != rpcs || d.StorePuts != int64(size.vertices) || d.RPCRetries != 0 {
			t.Errorf("%d vertices: rpc_calls %d, store puts %d, rpc_retries %d; want %d, %d, 0 (by endpoint: %v)",
				size.vertices, d.RPCCalls, d.StorePuts, d.RPCRetries, rpcs, size.vertices, endpointCounts(m))
		}
	}
}

func endpointCounts(m *metrics.Collector) map[string]int64 {
	out := map[string]int64{}
	for op, snap := range m.EndpointSnapshots() {
		out[op] = snap.Count
	}
	return out
}

// TestCheckpointRPCBudget pins the frames of one checkpoint over a 3-server,
// 2-replica fleet. Each of the 6 parts' agents reads the live and snapshot
// parts of the spill and state tables (4 snapshot frames) and sends one
// put_batch per replica for each table it has pairs to write; then the meta
// Put goes to both replicas: 6*4 + 6*2*2 + 2 = 50 frames. At step 2 one
// part has neither spills nor an older snapshot, so 48. A checkpoint is what
// the engine does between a due step's observer call and its aborter call.
// When each pair crossed the table handle, the same three checkpoints made
// 68, 92 and 114 frames, growing with the pairs copied.
func TestCheckpointRPCBudget(t *testing.T) {
	const parts = 6
	want := []int64{48, 50, 50}
	m := &metrics.Collector{}
	c := startLoopFleet(t, 3).dial(nil, netstore.WithMetrics(m))
	if _, err := c.CreateTable("ck_state", kvstore.WithParts(parts)); err != nil {
		t.Fatal(err)
	}
	var at int64
	var frames []int64
	job := &ebsp.Job{
		Name:        "ck",
		StateTables: []string{"ck_state"},
		Compute: ebsp.ComputeFunc(func(ctx *ebsp.Context) bool {
			k := ctx.Key().(int)
			ctx.WriteState(0, ctx.StepNum())
			if ctx.StepNum() < 8 {
				ctx.Send((k+7)%60, 1)
			}
			return false
		}),
		Loaders: []ebsp.Loader{&ebsp.EnableLoader{Keys: []any{0, 10, 20, 30, 40, 50}}},
		Aborter: ebsp.AborterFunc(func(step int, _ map[string]any) bool {
			if step%2 == 0 && step < 8 { // step 8 sends nothing and takes no checkpoint
				frames = append(frames, m.Snapshot().RPCCalls-at)
			}
			return false
		}),
	}
	observe := ebsp.WithObserver(ebsp.StepObserverFunc(func(ebsp.StepInfo) { at = m.Snapshot().RPCCalls }))
	if _, err := ebsp.NewEngine(c, ebsp.WithCheckpoints(2), observe).Run(job); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(frames, want) {
		t.Errorf("checkpoints at steps 2, 4, 6: %v frames, want %v", frames, want)
	}
}
