package serve

// The service over a part-server fleet: the same HTTP surface, the same
// workloads, but every store and mq operation crosses a real TCP boundary —
// and a chaos schedule SIGKILL-equivalent kills one part-server while an SSE
// client is attached to a running job. With replicas the client fails over
// and the job completes with the exact same result bytes as an in-process
// run; DELETE-cancel works over the wire too.

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ripple/internal/chaos"
	"ripple/internal/netstore"
)

// testFleet serves loopback part-servers inside the test process: the real
// wire protocol over real TCP sockets, without separate processes.
type testFleet struct {
	t       *testing.T
	mu      sync.Mutex
	addrs   []string
	servers []*netstore.Server
}

func startTestFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	f := &testFleet{t: t, addrs: make([]string, n), servers: make([]*netstore.Server, n)}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("fleet listen: %v", err)
		}
		f.addrs[i] = ln.Addr().String()
		srv := netstore.NewServer()
		f.servers[i] = srv
		go func() { _ = srv.Serve(ln) }()
	}
	t.Cleanup(f.stop)
	return f
}

// kill closes one server and respawns a fresh, empty one on the same address
// — an in-process stand-in for SIGKILLing a part-server and having its
// supervisor restart it. The address stays dark until the client's failure
// detector has counted the death (failovers moves): a respawn that answered
// sooner would be taken for the old process, and its "no such table" for a
// verdict on the job's data.
func (f *testFleet) kill(server int, failovers func() int64) {
	f.mu.Lock()
	victim := f.servers[server]
	addr := f.addrs[server]
	f.mu.Unlock()
	before := failovers()
	_ = victim.Close()
	waitUntil(f.t, "the client to sense the kill", func() bool { return failovers() > before })
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		f.t.Errorf("fleet respawn %s: %v", addr, err)
		return
	}
	srv := netstore.NewServer()
	f.mu.Lock()
	f.servers[server] = srv
	f.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
}

func (f *testFleet) stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, srv := range f.servers {
		_ = srv.Close()
	}
}

func dialTestFleet(t *testing.T, addrs []string, inj *chaos.Injector) *netstore.Client {
	t.Helper()
	opts := []netstore.Option{
		netstore.WithReplicas(2),
		netstore.WithHeartbeat(25*time.Millisecond, 2),
		netstore.WithRequestTimeout(300 * time.Millisecond),
		netstore.WithRetries(10),
		netstore.WithBackoffSeed(3),
	}
	if inj != nil {
		opts = append(opts, netstore.WithWireInjector(inj))
	}
	c, err := netstore.Dial(addrs, opts...)
	if err != nil {
		t.Fatalf("dial fleet: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestNetstoreChaosKillUnderSSE kills a part-server while an SSE client is
// streaming a running job's events: the replicated client fails over, the job
// completes, and the result bytes match an uninterrupted in-process run of
// the same params (both are job j1 of their service, so the derived seeds
// agree).
func TestNetstoreChaosKillUnderSSE(t *testing.T) {
	p := map[string]any{"vertices": 120, "edges": 480, "iterations": 12, "seed": 11, "step_delay_ms": 10}

	// Reference: same params on a plain in-process service.
	ref := newService(t, Options{})
	refRec, err := ref.Submit("", "pagerank", params(t, p))
	if err != nil {
		t.Fatal(err)
	}
	refDone := waitStatus(t, ref, refRec.ID, StatusDone)

	fleet := startTestFleet(t, 3)
	var killed atomic.Int32
	var client *netstore.Client
	inj := chaos.NewInjector(chaos.Schedule{
		Seed: 3,
		// A fault-free run of the job sends server 1 about 113 frames. Its
		// step-6 checkpoint commits at frame 61 and its last step starts at
		// 103, so frame 70 lands mid-run with a checkpoint to recover from.
		// (Frame 50, in step 6's spills, failed 1 run in 60-100: a spill Put
		// sent before the kill was sensed reached the empty respawn.)
		NetKills: []chaos.NetKill{{Server: 1, AfterFrames: 70}},
	})
	// Fires from the client's send path, so client is set by then.
	inj.OnNetKill(func(server int) {
		killed.Add(1)
		fleet.kill(server, client.Failovers)
	})
	client = dialTestFleet(t, fleet.addrs, inj)

	svc := newService(t, Options{Store: client, MaxConcurrent: 1, CheckpointEvery: 3})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	rec, err := svc.Submit("", "pagerank", params(t, p))
	if err != nil {
		t.Fatal(err)
	}

	// Attach SSE over real HTTP and stream until the terminal event.
	sseResp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + rec.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	sawDone := make(chan bool, 1)
	go func() {
		steps := 0
		scanner := bufio.NewScanner(sseResp.Body)
		for scanner.Scan() {
			line := scanner.Text()
			if strings.HasPrefix(line, "event: step") {
				steps++
			}
			if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"status":"done"`) {
				sawDone <- steps > 0
				return
			}
		}
		sawDone <- false
	}()

	done := waitStatus(t, svc, rec.ID, StatusDone)
	select {
	case ok := <-sawDone:
		if !ok {
			t.Error("SSE stream ended without step events and a done status")
		}
	case <-time.After(10 * time.Second):
		t.Error("SSE stream never saw the terminal event")
	}

	if killed.Load() == 0 {
		t.Error("the scheduled part-server kill never fired — the job saw no chaos")
	}
	if client.Failovers() == 0 {
		t.Error("no failovers sensed — the kill never disturbed the run")
	}
	if !bytes.Equal(done.Result, refDone.Result) {
		t.Errorf("networked run under chaos diverged from the in-process run:\n%s\nvs\n%s",
			done.Result, refDone.Result)
	}
}

// TestNetstoreCancel cancels a running job whose engine operates over the
// wire: DELETE interrupts it at the next barrier, and the fleet is left
// healthy enough that a fresh submit runs to done.
func TestNetstoreCancel(t *testing.T) {
	fleet := startTestFleet(t, 3)
	client := dialTestFleet(t, fleet.addrs, nil)
	svc := newService(t, Options{Store: client, MaxConcurrent: 1})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	rec := slowJob(t, svc, "")
	waitStep(t, svc, rec.ID)

	req, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+rec.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("cancel over the wire: %d", resp.StatusCode)
	}
	got := waitStatus(t, svc, rec.ID, StatusCanceled)
	if !got.CancelRequested {
		t.Error("canceled record does not show the request")
	}

	// The slot, job name, and fleet tables are all released: a fresh submit
	// over the same wire store runs to done.
	again, err := svc.Submit("", "pagerank", params(t, map[string]any{"vertices": 60, "iterations": 3}))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, again.ID, StatusDone)
}
