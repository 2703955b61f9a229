package netstore_test

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ripple/internal/chaos"
	"ripple/internal/codec"
	"ripple/internal/ebsp"
	"ripple/internal/kvstore"
	"ripple/internal/memstore"
	"ripple/internal/metrics"
	"ripple/internal/netstore"
	"ripple/internal/sssp"
	"ripple/internal/workload"
)

// buildPartServer compiles cmd/ripple-part-server into dir and returns the
// binary path. The go build cache keeps repeat builds cheap.
func buildPartServer(t *testing.T, dir string) string {
	t.Helper()
	bin := dir + "/ripple-part-server"
	cmd := exec.Command("go", "build", "-o", bin, "ripple/cmd/ripple-part-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build part-server: %v\n%s", err, out)
	}
	return bin
}

// partProc is one spawned part-server child process.
type partProc struct {
	cmd  *exec.Cmd
	addr string
}

// spawnPartServer starts a child on addr ("127.0.0.1:0" for a kernel port)
// and waits for its "listening <addr>" line.
func spawnPartServer(t *testing.T, bin, addr string) *partProc {
	t.Helper()
	cmd := exec.Command(bin, "-addr", addr)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start part-server: %v", err)
	}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		// Keep draining so the child never blocks on a full pipe.
		for sc.Scan() {
		}
	}()
	select {
	case line, ok := <-lines:
		if !ok || !strings.HasPrefix(line, "listening ") {
			_ = cmd.Process.Kill()
			t.Fatalf("part-server banner = %q", line)
		}
		return &partProc{cmd: cmd, addr: strings.TrimPrefix(line, "listening ")}
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("part-server never printed its listening banner")
		return nil
	}
}

// kill SIGKILLs the child — a crash, not a graceful shutdown.
func (p *partProc) kill() {
	_ = p.cmd.Process.Kill()
	_, _ = p.cmd.Process.Wait()
}

// fingerprint reduces a table to one byte string: every (key, value) pair
// codec-encoded, the encodings sorted, lengths delimited. Two tables holding
// the same logical pairs fingerprint identically regardless of which store
// served them.
func fingerprint(t *testing.T, tab kvstore.Table) []byte {
	t.Helper()
	pairs, err := kvstore.Dump(tab)
	if err != nil {
		t.Fatalf("dump %s: %v", tab.Name(), err)
	}
	encoded := make([]string, 0, len(pairs))
	for k, v := range pairs {
		ek, err := codec.Encode(k)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := codec.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		encoded = append(encoded, fmt.Sprintf("%d:%x=%x", len(ek), ek, ev))
	}
	sort.Strings(encoded)
	return []byte(strings.Join(encoded, "\n"))
}

// soakChanges deterministically picks one edge deletion (forcing the
// two-wave hard case) and one edge insertion from the graph.
func soakChanges(g *workload.UndirectedGraph) []workload.Change {
	u := 1
	v := int(g.Neighbors(u)[0])
	addU, addV := -1, -1
	for a := 0; a < g.NumVertices && addU < 0; a++ {
		for b := a + 2; b < g.NumVertices; b++ {
			if _, ok := g.Adj[a][int32(b)]; !ok {
				addU, addV = a, b
				break
			}
		}
	}
	return []workload.Change{
		{Kind: workload.RemoveEdge, U: u, V: v},
		{Kind: workload.AddEdge, U: addU, V: addV},
	}
}

// runFullScan drives the whole SSSP full-scan workload — init plus one
// change batch — on the given store and returns the final table fingerprint.
func runFullScan(t *testing.T, store kvstore.Store, g *workload.UndirectedGraph, changes []workload.Change) []byte {
	t.Helper()
	m := &metrics.Collector{}
	e := ebsp.NewEngine(store, ebsp.WithMetrics(m), ebsp.WithCheckpoints(2))
	fs := sssp.NewFullScan(e, "soak_sssp", 0, 6)
	if err := fs.Init(g); err != nil {
		t.Fatalf("init: %v", err)
	}
	if _, err := fs.ApplyBatch(changes); err != nil {
		t.Fatalf("apply batch: %v", err)
	}
	tab, ok := store.LookupTable("soak_sssp")
	if !ok {
		t.Fatal("soak_sssp table missing after the run")
	}
	return fingerprint(t, tab)
}

// TestProcessKillSoak is the tentpole acceptance check: the SSSP full-scan
// workload runs against three real part-server child processes over
// loopback while the chaos schedule SIGKILLs one mid-step (the harness
// respawns it — empty, like a real crash recovery) and opens a one-way
// client→server partition against another. The run must complete with a
// final table byte-identical to the same workload on an in-process store.
func TestProcessKillSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	g, err := workload.PowerLawUndirected(rand.New(rand.NewSource(7)), 200, 900, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	changes := soakChanges(g)

	// In-process reference run.
	ms := memstore.New(memstore.WithParts(6))
	defer func() { _ = ms.Close() }()
	want := runFullScan(t, ms, g, changes)

	// The fleet: three child processes on loopback.
	bin := buildPartServer(t, t.TempDir())
	var mu sync.Mutex
	procs := make([]*partProc, 3)
	addrs := make([]string, 3)
	for i := range procs {
		procs[i] = spawnPartServer(t, bin, "127.0.0.1:0")
		addrs[i] = procs[i].addr
	}
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range procs {
			p.kill()
		}
	}()

	// The chaos plan: SIGKILL server 1 mid-run (respawned on the same port
	// ~200ms later, empty), and a one-way c2s partition against server 2
	// opening at its 420th data frame. Both fire well inside the waves. A
	// fault-free run sends servers 1 and 2 about 760 frames each, ~94 per
	// wave. Frame 340 of server 1 is in step 1 of Init's fourth wave, after
	// its step-0 checkpoint commits (frame 325) and before its last step
	// (363). Frame 420 of server 2 is where the batch's first wave commits
	// its step-0 checkpoint (419).
	inj := chaos.NewInjector(chaos.Schedule{
		Seed:       3,
		NetKills:   []chaos.NetKill{{Server: 1, AfterFrames: 340}},
		Partitions: []chaos.Partition{{C2S: true, Server: 2, FromFrame: 420, Frames: 200}},
	})
	inj.OnNetKill(func(server int) {
		mu.Lock()
		victim := procs[server]
		mu.Unlock()
		victim.kill()
		time.Sleep(200 * time.Millisecond)
		respawn := spawnPartServer(t, bin, victim.addr)
		mu.Lock()
		procs[server] = respawn
		mu.Unlock()
	})

	c, err := netstore.Dial(addrs,
		netstore.WithReplicas(3),
		netstore.WithHeartbeat(25*time.Millisecond, 2),
		netstore.WithRequestTimeout(300*time.Millisecond),
		netstore.WithRetries(10),
		netstore.WithBackoffSeed(3),
		netstore.WithWireInjector(inj),
	)
	if err != nil {
		t.Fatalf("dial fleet: %v", err)
	}
	defer func() { _ = c.Close() }()

	got := runFullScan(t, c, g, changes)
	if !bytes.Equal(got, want) {
		t.Fatalf("networked run diverged from the in-process run:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}

	if c.Failovers() == 0 {
		t.Error("no failovers sensed — the kill never disturbed the run")
	}
	var kills, partitions int
	for _, r := range inj.Records() {
		switch r.Kind {
		case "netkill":
			kills++
		case "partition":
			partitions++
		}
	}
	if kills != 1 {
		t.Errorf("netkill fired %d times, want 1", kills)
	}
	if partitions == 0 {
		t.Error("the partition window never opened — tune FromFrame down")
	}
}
