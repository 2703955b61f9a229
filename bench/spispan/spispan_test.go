package spispan_test

import (
	"math"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"ripple/bench/spispan"
	"ripple/internal/diskstore"
	"ripple/internal/ebsp"
	"ripple/internal/gridstore"
	"ripple/internal/kvstore"
	"ripple/internal/matrix"
	"ripple/internal/memstore"
	"ripple/internal/mq"
	"ripple/internal/netstore"
	"ripple/internal/pagerank"
	"ripple/internal/summa"
	"ripple/internal/workload"
)

// The engine finds a store's optional capabilities by type assertion, so a
// wrapper that hid or invented one would change which code runs.
func TestWrapMirrorsCapabilities(t *testing.T) {
	disk, err := diskstore.New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := netstore.NewServer()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	client, err := netstore.Dial([]string{ln.Addr().String()}, netstore.WithReplicas(1))
	if err != nil {
		t.Fatal(err)
	}
	stores := []kvstore.Store{memstore.New(), gridstore.New(), disk, client}
	rec := spispan.NewRecorder(16)
	for _, s := range stores {
		if got, want := spispan.Capabilities(spispan.Wrap(s, rec)), spispan.Capabilities(s); got != want {
			t.Errorf("%s: wrapped capabilities %v, inner %v", s.Name(), got, want)
		}
		if err := s.Close(); err != nil {
			t.Errorf("%s: close: %v", s.Name(), err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Error(err)
	}
	if err := <-served; err != nil {
		t.Error(err)
	}
}

func dump(t *testing.T, s kvstore.Store, table string) map[any]any {
	t.Helper()
	tab, ok := s.LookupTable(table)
	if !ok {
		t.Fatalf("%s: no table %q", s.Name(), table)
	}
	pairs, err := kvstore.Dump(tab)
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

// A decorated pagerank.mem job leaves the same table as an undecorated one —
// the same vertices and edges, and ranks equal to the last bits a float sum
// can differ by between any two runs, decorated or not, since parts deliver
// their contributions in scheduling order — and the decorators saw it: spans
// nest job → dispatch → body → part ops.
func TestDecoratedPageRankIdentical(t *testing.T) {
	g, err := workload.PowerLawDirected(rand.New(rand.NewSource(5)), 400, 4000, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(rec *spispan.Recorder) map[any]any {
		t.Helper()
		store := memstore.New(memstore.WithParts(6))
		defer func() { _ = store.Close() }()
		if _, err := pagerank.LoadGraph(store, "g", g, 6); err != nil {
			t.Fatal(err)
		}
		var s kvstore.Store = store
		end := func() {}
		if rec != nil {
			s = spispan.Wrap(store, rec)
			end = rec.BeginJob(0)
		}
		_, err := pagerank.RunDirect(ebsp.NewEngine(s), pagerank.Config{GraphTable: "g", Iterations: 5})
		end()
		if err != nil {
			t.Fatal(err)
		}
		return dump(t, store, "g")
	}
	rec := spispan.NewRecorder(1 << 16)
	plain, decorated := run(nil), run(rec)
	if len(plain) != len(decorated) {
		t.Fatalf("decorated run left %d vertices, plain %d", len(decorated), len(plain))
	}
	for k, v := range plain {
		p, d := v.(pagerank.Ranked), decorated[k].(pagerank.Ranked)
		if !reflect.DeepEqual(p.Out, d.Out) || math.Abs(p.Rank-d.Rank) > 1e-15 {
			t.Fatalf("vertex %v: decorated run left %+v, plain %+v", k, d, p)
		}
	}

	spans := rec.Spans()
	if rec.Dropped() != 0 || len(spans) == 0 {
		t.Fatalf("%d spans, %d dropped", len(spans), rec.Dropped())
	}
	for i, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts: %+v", i+1, s)
		}
		switch {
		case s.Layer == spispan.LayerJob:
			if s.Parent != 0 {
				t.Errorf("job span has parent %d", s.Parent)
			}
		case s.Layer == spispan.LayerEngine:
			if p := spans[s.Parent-1]; p.Op != spispan.OpAgent || p.Start > s.Start || p.End < s.End {
				t.Errorf("body span %d is not inside a dispatch span: %+v in %+v", i+1, s, p)
			}
		case s.Parent == 0:
			t.Errorf("span %d has no parent: %+v", i+1, s)
		}
	}
	if got := rec.Stats(spispan.OpGet).Calls; got != 400 {
		t.Errorf("%d gets recorded, want one per vertex (400)", got)
	}
	if rec.Stats(spispan.OpAgent).Calls == 0 || rec.Stats(spispan.OpPut).BusyNS == 0 {
		t.Error("no dispatches or no put time recorded")
	}
}

// A decorated summa.nosync.grid job — store and queuing both wrapped, so
// delivery order is on the line — leaves the same state table.
func TestDecoratedSUMMAIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b := matrix.Random(rng, 60, 60), matrix.Random(rng, 60, 60)
	run := func(rec *spispan.Recorder) map[any]any {
		store := gridstore.New(gridstore.WithParts(10))
		defer func() { _ = store.Close() }()
		var s kvstore.Store = store
		var q mq.Queuing = mq.NewSystem(mq.WithLatency(200 * time.Microsecond))
		end := func() {}
		if rec != nil {
			s, q = spispan.Wrap(store, rec), spispan.WrapMQ(q, rec)
			end = rec.BeginJob(0)
		}
		_, err := summa.Multiply(s, summa.Config{Grid: 3, MQ: q}, a, b)
		end()
		if err != nil {
			t.Fatal(err)
		}
		return dump(t, store, "summa.state")
	}
	rec := spispan.NewRecorder(1 << 14)
	plain, decorated := run(nil), run(rec)
	if !reflect.DeepEqual(plain, decorated) {
		t.Fatal("decorated run left a different state table")
	}
	if puts, reads := rec.Stats(spispan.OpMQPut).Calls, rec.Stats(spispan.OpMQRead).Calls; puts == 0 || reads < puts {
		t.Errorf("%d queue puts and %d reads recorded", puts, reads)
	}
}

// Outside a job the decorators only delegate.
func TestNothingRecordedOutsideJobs(t *testing.T) {
	rec := spispan.NewRecorder(16)
	s := spispan.Wrap(memstore.New(), rec)
	defer func() { _ = s.Close() }()
	tab, err := s.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Put(1, "x"); err != nil {
		t.Fatal(err)
	}
	if n := len(rec.Spans()); n != 0 || rec.Stats(spispan.OpPut).Calls != 0 {
		t.Fatalf("%d spans and %d puts recorded with no job open", n, rec.Stats(spispan.OpPut).Calls)
	}
	end := rec.BeginJob(3)
	if _, _, err := tab.Get(1); err != nil {
		t.Fatal(err)
	}
	end()
	spans := rec.Spans()
	if len(spans) != 2 || spans[1].Job != 3 || spans[1].Parent != 1 || spans[1].Op != spispan.OpGet {
		t.Fatalf("spans = %+v, want the job and one get under it", spans)
	}
}
