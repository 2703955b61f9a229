package netstore

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ripple/internal/kvstore"
	"ripple/internal/metrics"
)

// keysOfPart returns the first n int keys the table places in part.
func keysOfPart(tbl kvstore.Table, part, n int) []int {
	var keys []int
	for k := 0; len(keys) < n; k++ {
		if tbl.PartOf(k) == part {
			keys = append(keys, k)
		}
	}
	return keys
}

// endpointCount is how many RPCs of one kind the client has issued.
func endpointCount(m *metrics.Collector, op string) int64 {
	return m.EndpointSnapshots()[op].Count
}

// TestAgentWriteBehind pins the buffering rules of an agent's part view:
// writes stay client-side until the body returns nil, reads see them first,
// enumeration and Len push them out first, and a body that fails or panics
// leaves the table as it found it.
func TestAgentWriteBehind(t *testing.T) {
	m := &metrics.Collector{}
	addrs, _, stop := fleet(t, 3)
	defer stop()
	c := dialFleet(t, addrs, WithReplicas(2), WithMetrics(m))
	tbl, err := c.CreateTable("wb", kvstore.WithParts(3))
	if err != nil {
		t.Fatal(err)
	}
	const part = 1
	keys := keysOfPart(tbl, part, 6)
	old, gone, fresh := keys[0], keys[1], keys[2]
	for _, k := range []int{old, gone} {
		if err := tbl.Put(k, "before"); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("read-your-writes and one frame per replica", func(t *testing.T) {
		batches := endpointCount(m, "put_batch")
		singles := endpointCount(m, "put") + endpointCount(m, "delete")
		_, err := c.RunAgent("wb", part, func(sv kvstore.ShardView) (any, error) {
			view, err := sv.View("wb")
			if err != nil {
				return nil, err
			}
			if again, _ := sv.View("wb"); again != view {
				return nil, errors.New("a second View of the same table got its own buffer")
			}
			if err := view.Put(fresh, "new"); err != nil {
				return nil, err
			}
			if err := view.Put(old, "draft"); err != nil {
				return nil, err
			}
			if err := view.Put(old, "after"); err != nil {
				return nil, err
			}
			if err := view.Delete(gone); err != nil {
				return nil, err
			}
			if v, ok, err := view.Get(old); err != nil || !ok || v != "after" {
				return nil, fmt.Errorf("Get after Put = %v %v %v", v, ok, err)
			}
			if v, ok, err := view.Get(gone); err != nil || ok {
				return nil, fmt.Errorf("Get after Delete = %v %v %v", v, ok, err)
			}
			// Nothing has crossed the wire yet: the table still holds
			// what it held when the agent started.
			if v, ok, err := tbl.Get(old); err != nil || !ok || v != "before" {
				return nil, fmt.Errorf("table saw a buffered write early: %v %v %v", v, ok, err)
			}
			if _, ok, _ := tbl.Get(fresh); ok {
				return nil, errors.New("table saw a buffered put early")
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := endpointCount(m, "put_batch") - batches; got != 2 {
			t.Errorf("flush sent %d put_batch frames, want one per replica (2)", got)
		}
		if got := endpointCount(m, "put") + endpointCount(m, "delete") - singles; got != 0 {
			t.Errorf("agent writes still sent %d per-key frames", got)
		}
		for k, want := range map[int]any{old: "after", fresh: "new"} {
			if v, ok, err := tbl.Get(k); err != nil || !ok || v != want {
				t.Errorf("after the agent, %d = %v %v %v, want %v", k, v, ok, err, want)
			}
		}
		if _, ok, _ := tbl.Get(gone); ok {
			t.Error("buffered delete never landed")
		}
	})

	t.Run("flush before enumerate and len", func(t *testing.T) {
		_, err := c.RunAgent("wb", part, func(sv kvstore.ShardView) (any, error) {
			view, _ := sv.View("wb")
			if err := view.Put(keys[3], "seen"); err != nil {
				return nil, err
			}
			found := false
			err := view.Enumerate(func(k, v any) (bool, error) {
				if k == keys[3] {
					found = v == "seen"
				}
				return false, nil
			})
			if err != nil || !found {
				return nil, fmt.Errorf("Enumerate missed the buffered put (err %v)", err)
			}
			if err := view.Delete(keys[3]); err != nil {
				return nil, err
			}
			if n, err := view.Len(); err != nil || n != 2 {
				return nil, fmt.Errorf("Len = %d %v, want 2 (old and fresh)", n, err)
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("discard on error and panic", func(t *testing.T) {
		boom := errors.New("boom")
		write := func(sv kvstore.ShardView) error {
			view, _ := sv.View("wb")
			if err := view.Put(old, "torn"); err != nil {
				return err
			}
			return view.Delete(fresh)
		}
		_, err := c.RunAgent("wb", part, func(sv kvstore.ShardView) (any, error) {
			if err := write(sv); err != nil {
				return nil, err
			}
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("agent error = %v, want boom", err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("the agent's panic did not propagate")
				}
			}()
			_, _ = c.RunAgent("wb", part, func(sv kvstore.ShardView) (any, error) {
				if err := write(sv); err != nil {
					return nil, err
				}
				panic("agent panicked")
			})
		}()
		_, err = tbl.EnumerateParts(kvstore.PartConsumerFuncs{ProcessFn: func(sv kvstore.ShardView) (any, error) {
			if sv.Part() != part {
				return nil, nil
			}
			return nil, errors.Join(write(sv), boom)
		}})
		if !errors.Is(err, boom) {
			t.Fatalf("EnumerateParts error = %v, want boom", err)
		}
		if v, ok, err := tbl.Get(old); err != nil || !ok || v != "after" {
			t.Errorf("a failed body's put landed: %v %v %v", v, ok, err)
		}
		if _, ok, _ := tbl.Get(fresh); !ok {
			t.Error("a failed body's delete landed")
		}
	})

	t.Run("EnumerateParts flushes on success", func(t *testing.T) {
		_, err := tbl.EnumerateParts(kvstore.PartConsumerFuncs{ProcessFn: func(sv kvstore.ShardView) (any, error) {
			view, err := sv.View("wb")
			if err != nil {
				return nil, err
			}
			return nil, view.Put(keysOfPart(tbl, sv.Part(), 1)[0], sv.Part())
		}})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 3; p++ {
			k := keysOfPart(tbl, p, 1)[0]
			if v, ok, err := tbl.Get(k); err != nil || !ok || v != p {
				t.Errorf("part %d's ProcessPart write = %v %v %v", p, v, ok, err)
			}
		}
	})

	t.Run("early flush at the byte cap", func(t *testing.T) {
		big := strings.Repeat("x", flushCap/4)
		batches := endpointCount(m, "put_batch")
		_, err := c.RunAgent("wb", part, func(sv kvstore.ShardView) (any, error) {
			view, _ := sv.View("wb")
			for i := 0; i < 4; i++ {
				if err := view.Put(keys[i], big); err != nil {
					return nil, err
				}
			}
			// The fourth put crossed the cap, so all four are on the
			// servers already; the fifth waits for the body to return.
			if got := endpointCount(m, "put_batch") - batches; got != 2 {
				return nil, fmt.Errorf("%d put_batch frames before the body returned, want 2", got)
			}
			if v, ok, err := tbl.Get(keys[3]); err != nil || !ok || v != big {
				return nil, fmt.Errorf("capped flush did not land (ok %v, err %v)", ok, err)
			}
			if err := view.Put(keys[4], "tail"); err != nil {
				return nil, err
			}
			if v, ok, err := view.Get(keys[0]); err != nil || !ok || v != big {
				return nil, fmt.Errorf("Get of a flushed key (ok %v, err %v)", ok, err)
			}
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := endpointCount(m, "put_batch") - batches; got != 4 {
			t.Errorf("%d put_batch frames in all, want 4 (two flushes, two replicas)", got)
		}
		if v, ok, _ := tbl.Get(keys[4]); !ok || v != "tail" {
			t.Errorf("the write after the capped flush = %v %v", v, ok)
		}
	})

	// The agent-side writes above are in marshalled_bytes, counted at the
	// flush: at least the four big values and nothing like twice them.
	if got := m.Snapshot().MarshalledBytes; got < flushCap || got > 2*flushCap {
		t.Errorf("marshalled_bytes = %d, want between %d and %d", got, flushCap, 2*flushCap)
	}
}

// TestReadAhead: the hint costs nothing until a Get misses, then the hinted
// keys arrive in one frame and are served locally — except the keys the
// agent has written, which the buffer answers.
func TestReadAhead(t *testing.T) {
	m := &metrics.Collector{}
	addrs, _, stop := fleet(t, 3)
	defer stop()
	c := dialFleet(t, addrs, WithReplicas(2), WithMetrics(m))
	tbl, _ := c.CreateTable("ra", kvstore.WithParts(3))
	const part = 2
	keys := keysOfPart(tbl, part, 8)
	for _, k := range keys[:5] {
		if err := tbl.Put(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	hint := make([]any, len(keys))
	for i, k := range keys {
		hint[i] = k
	}

	calls := m.Snapshot().RPCCalls
	_, err := c.RunAgent("ra", part, func(sv kvstore.ShardView) (any, error) {
		view, _ := sv.View("ra")
		view.(kvstore.ReadAheader).ReadAhead(hint)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().RPCCalls - calls; got != 0 {
		t.Errorf("an agent that never read cost %d RPCs", got)
	}

	calls = m.Snapshot().RPCCalls
	_, err = c.RunAgent("ra", part, func(sv kvstore.ShardView) (any, error) {
		view, _ := sv.View("ra")
		view.(kvstore.ReadAheader).ReadAhead(hint)
		if err := view.Put(keys[0], "mine"); err != nil {
			return nil, err
		}
		if err := view.Delete(keys[1]); err != nil {
			return nil, err
		}
		for i, k := range keys {
			v, ok, err := view.Get(k)
			if err != nil {
				return nil, err
			}
			switch {
			case i == 0:
				if !ok || v != "mine" {
					return nil, fmt.Errorf("own put hidden by read-ahead: %v %v", v, ok)
				}
			case i == 1 || i >= 5:
				if ok {
					return nil, fmt.Errorf("key %d should be absent, got %v", k, v)
				}
			default:
				if !ok || v != k*10 {
					return nil, fmt.Errorf("key %d = %v %v", k, v, ok)
				}
			}
		}
		if got := m.Snapshot().RPCCalls - calls; got != 1 {
			return nil, fmt.Errorf("eight Gets cost %d RPCs, want one get_batch", got)
		}
		// A key outside the hint still works, one frame of its own.
		if _, ok, err := view.Get(keysOfPart(tbl, part, 9)[8]); err != nil || ok {
			return nil, fmt.Errorf("unhinted Get = %v %v", ok, err)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := endpointCount(m, "get_batch"); got != 1 {
		t.Errorf("get_batch frames = %d, want 1", got)
	}
}

// opDropper loses every request of the opcodes it is told to.
type opDropper struct {
	mu   sync.Mutex
	drop map[uint8]bool
}

func (d *opDropper) set(ops ...uint8) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drop = make(map[uint8]bool)
	for _, op := range ops {
		d.drop[op] = true
	}
}

func (d *opDropper) SendFault(_ int, op uint8) WireFault {
	d.mu.Lock()
	defer d.mu.Unlock()
	return WireFault{Drop: d.drop[op]}
}

func (*opDropper) RecvFault(int, uint8) WireFault { return WireFault{} }
func (*opDropper) PingBlocked(int, bool) bool     { return false }

// TestFailedFlushIsNotTransient: a flush that runs out of retries may have
// landed on some replicas, so it must come back as the failover class the
// engine restores a checkpoint for — never as ErrTransient, which the engine
// answers by running the body again.
func TestFailedFlushIsNotTransient(t *testing.T) {
	inj := &opDropper{}
	addrs, _, stop := fleet(t, 2)
	defer stop()
	c := dialFleet(t, addrs, WithReplicas(2), WithWireInjector(inj),
		WithRequestTimeout(20*time.Millisecond), WithRetries(1), WithHeartbeat(time.Hour, 100))
	tbl, _ := c.CreateTable("ff", kvstore.WithParts(2))
	key := keysOfPart(tbl, 0, 1)[0]
	enumerate := func(view kvstore.PartView) error {
		return view.Enumerate(func(_, _ any) (bool, error) { return false, nil })
	}

	inj.set(opPutBatch)
	_, err := c.RunAgent("ff", 0, func(sv kvstore.ShardView) (any, error) {
		view, _ := sv.View("ff")
		return nil, view.Put(key, 1)
	})
	if !errors.Is(err, kvstore.ErrShardFailed) || errors.Is(err, kvstore.ErrTransient) {
		t.Fatalf("failed flush = %v, want ErrShardFailed and not ErrTransient", err)
	}

	// The same holds for a transient read failure once part of the body's
	// writes are out: Enumerate flushes, then its snapshot is lost.
	inj.set(opSnapshot)
	_, err = c.RunAgent("ff", 0, func(sv kvstore.ShardView) (any, error) {
		view, _ := sv.View("ff")
		if err := view.Put(key, 2); err != nil {
			return nil, err
		}
		return nil, enumerate(view)
	})
	if !errors.Is(err, kvstore.ErrShardFailed) || errors.Is(err, kvstore.ErrTransient) {
		t.Fatalf("read failure after a flush = %v, want ErrShardFailed and not ErrTransient", err)
	}
	// With nothing sent, the same read failure had no effect and stays
	// retryable.
	_, err = c.RunAgent("ff", 0, func(sv kvstore.ShardView) (any, error) {
		view, _ := sv.View("ff")
		return nil, enumerate(view)
	})
	if !errors.Is(err, kvstore.ErrTransient) {
		t.Fatalf("read failure before any write = %v, want ErrTransient", err)
	}
}

// TestGracefulCloseUnderWrites closes one part-server the polite way — the
// way SIGTERM does — under a stream of replicated puts and agent flushes.
// A closing server must look like a dead one: the callers see no error, and
// afterwards every acknowledged write is readable.
func TestGracefulCloseUnderWrites(t *testing.T) {
	addrs, servers, stop := fleet(t, 3)
	defer stop()
	c := dialFleet(t, addrs,
		WithReplicas(2),
		WithHeartbeat(10*time.Millisecond, 2),
		WithRequestTimeout(500*time.Millisecond),
		WithRetries(12),
	)
	const parts, writers, rounds = 6, 4, 150
	tbl, err := c.CreateTable("gc", kvstore.WithParts(parts))
	if err != nil {
		t.Fatal(err)
	}

	closing := make(chan struct{})
	var closed sync.WaitGroup
	closed.Add(1)
	go func() {
		defer closed.Done()
		<-closing
		_ = servers[1].Close()
	}()

	errs := make(chan error, 2*writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func(w int) { // replicated per-key puts through the table handle
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if w == 0 && i == rounds/3 {
					close(closing)
				}
				if err := tbl.Put(fmt.Sprintf("put-%d-%d", w, i), i); err != nil {
					errs <- fmt.Errorf("put %d/%d: %w", w, i, err)
					return
				}
			}
		}(w)
		go func(w int) { // batch flushes: three keys per agent, one frame per replica
			defer wg.Done()
			keys := keysOfPart(tbl, w, 3*rounds)
			for i := 0; i < rounds; i++ {
				_, err := c.RunAgent("gc", w, func(sv kvstore.ShardView) (any, error) {
					view, err := sv.View("gc")
					if err != nil {
						return nil, err
					}
					for _, k := range keys[3*i : 3*i+3] {
						if err := view.Put(k, i); err != nil {
							return nil, err
						}
					}
					return nil, nil
				})
				if err != nil {
					errs <- fmt.Errorf("agent %d/%d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	closed.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("caller saw the close: %v", err)
	}
	if c.Failovers() == 0 {
		t.Error("the close was never sensed as a failover")
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < rounds; i++ {
			if v, ok, err := tbl.Get(fmt.Sprintf("put-%d-%d", w, i)); err != nil || !ok || v != i {
				t.Fatalf("put-%d-%d = %v %v %v", w, i, v, ok, err)
			}
		}
		for j, k := range keysOfPart(tbl, w, 3*rounds) {
			if v, ok, err := tbl.Get(k); err != nil || !ok || v != j/3 {
				t.Fatalf("agent key %d = %v %v %v, want %d", k, v, ok, err, j/3)
			}
		}
	}
}

// serveClosing is a part-server stuck in its last moments the way one built
// before this protocol rule was: alive to pings, answering every data
// request with "store is closed".
func serveClosing(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					req, err := readFrame(conn)
					if err != nil {
						return
					}
					resp := errFrame(req, kvstore.ErrClosed)
					if req.Op == opPing {
						resp = frame{ID: req.ID, Op: opPing, Aux: 1}
					}
					if writeFrame(conn, resp) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRemoteClosedIsTransport: a "store is closed" reply that does reach the
// client is a lost frame to retry and fail over from, not a verdict on the
// data. Only the client's own Close is final.
func TestRemoteClosedIsTransport(t *testing.T) {
	addrs, _, stop := fleet(t, 1)
	defer stop()
	addrs = append(addrs, serveClosing(t))
	c := dialFleet(t, addrs, WithReplicas(2), WithHeartbeat(time.Hour, 2), WithRetries(20))
	tbl, err := c.CreateTable("rc", kvstore.WithParts(4))
	if err != nil {
		t.Fatalf("create with one server closing: %v", err)
	}
	// A key whose primary is the closing server.
	key := 0
	for replicaSet(tbl.PartOf(key), 2, 2)[0] != 1 {
		key++
	}
	if err := tbl.Put(key, "v"); err != nil {
		t.Fatalf("put against a closing primary: %v", err)
	}
	if v, ok, err := tbl.Get(key); err != nil || !ok || v != "v" {
		t.Fatalf("get = %v %v %v, want the replica's copy", v, ok, err)
	}
	if c.Failovers() == 0 {
		t.Error("the closing primary was never marked down")
	}

	_ = c.Close()
	if _, err := c.CreateTable("late"); !errors.Is(err, kvstore.ErrClosed) {
		t.Errorf("the client's own Close = %v, want ErrClosed", err)
	}
}

// FuzzReadFrame feeds readFrameN bytes it did not write: whatever arrives on
// the socket, the reader returns a frame or an error — no panic, no
// allocation sized by an unchecked length — and a frame it accepts survives
// a second trip unchanged.
func FuzzReadFrame(f *testing.F) {
	seeds := []frame{
		{ID: 1, Op: opPing},
		{ID: 2, Op: opPut, Name: "t", Part: 3, Key: []byte("k"), Val: []byte("v")},
		{ID: 3, Op: opPutBatch, Name: "state", Part: 1, Trace: 7, Span: 9, Pairs: []wirePair{
			{K: []byte("a"), V: []byte("1")}, {K: []byte("b"), Absent: true}, {K: []byte("c"), V: []byte("")},
		}},
		{ID: 4, Op: opGetBatch, Name: "state", Part: 1, Pairs: []wirePair{{K: []byte("a")}, {K: []byte("z")}}},
		{ID: 4, Op: opGetBatch, Pairs: []wirePair{{V: []byte("1")}, {Absent: true}}},
		{ID: 5, Op: opGet, Code: errCodeClosed, Val: []byte("kvstore: store is closed")},
	}
	for _, fr := range seeds {
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0})    // length past maxFrame
	f.Add([]byte{0, 0, 0, 9, 1, 2, 3})          // body shorter than its prefix
	f.Add([]byte{0, 0, 0, 3, 0xfe, 0xfe, 0xfe}) // not a frame at all
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := readFrameN(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n < 4 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			t.Fatalf("an accepted frame does not re-encode: %v", err)
		}
		again, _, err := readFrameN(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if fmt.Sprintf("%#v", again) != fmt.Sprintf("%#v", fr) {
			t.Fatalf("round trip changed the frame:\n%#v\n%#v", fr, again)
		}
	})
}
