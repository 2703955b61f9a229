package chaos

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"ripple/internal/gridstore"
	"ripple/internal/kvstore"
	"ripple/internal/memstore"
	"ripple/internal/mq"
)

func TestParseRoundTrip(t *testing.T) {
	in := "seed=7,store.err=0.01,store.delay=1ms@0.05,agent.err=0.02," +
		"mq.err=0.01,mq.dup=0.05,mq.delay=2ms@0.1,kill=pages:3@40,kill=pages:1@10"
	sched, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	want := Schedule{
		Seed:         7,
		StoreErrRate: 0.01, StoreDelay: time.Millisecond, StoreDelayRate: 0.05,
		AgentErrRate: 0.02,
		MQErrRate:    0.01, MQDupRate: 0.05, MQDelay: 2 * time.Millisecond, MQDelayRate: 0.1,
		Kills: []Kill{{Table: "pages", Part: 3, AfterDispatches: 40}, {Table: "pages", Part: 1, AfterDispatches: 10}},
	}
	if !reflect.DeepEqual(sched, want) {
		t.Fatalf("Parse = %+v, want %+v", sched, want)
	}
	// String renders kills sorted; reparsing it must yield the same plan.
	again, err := Parse(sched.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", sched.String(), err)
	}
	if again.String() != sched.String() {
		t.Errorf("round trip: %q != %q", again.String(), sched.String())
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	for _, s := range []string{
		"store.err",      // no value
		"bogus=1",        // unknown key
		"store.err=1.5",  // rate outside [0,1]
		"mq.delay=xyz",   // unparsable duration
		"mq.delay=-1ms",  // negative delay
		"kill=pages",     // missing part/dispatches
		"kill=pages:x@3", // bad part
		"kill=:0@3",      // empty table
		"mq.delay=1ms@2", // delay rate outside [0,1]
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestParseBareDelayMeansAlways(t *testing.T) {
	sched, err := Parse("seed=1,store.delay=3ms")
	if err != nil {
		t.Fatal(err)
	}
	if sched.StoreDelay != 3*time.Millisecond || sched.StoreDelayRate != 1 {
		t.Errorf("bare delay = %v@%v, want 3ms@1", sched.StoreDelay, sched.StoreDelayRate)
	}
}

func TestNormalizeName(t *testing.T) {
	for in, want := range map[string]string{
		"__ebsp.pagerank.3.transport": "__ebsp.pagerank.#.transport",
		"pages":                       "pages",
		"__ebsp.summa.q17":            "__ebsp.summa.q17", // mixed segment kept
		"a.12.b.345":                  "a.#.b.#",
	} {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestUniformDeterministicAndSpread(t *testing.T) {
	var sum float64
	const n = 4000
	for i := int64(0); i < n; i++ {
		u := uniform(42, "store.err", "tab", 1, i)
		if u != uniform(42, "store.err", "tab", 1, i) {
			t.Fatal("uniform is not a pure function")
		}
		if u < 0 || u >= 1 {
			t.Fatalf("uniform #%d = %v outside [0,1)", i, u)
		}
		sum += u
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Errorf("mean of %d variates = %v, want ≈0.5", n, mean)
	}
	if uniform(1, "store.err", "tab", 0, 0) == uniform(2, "store.err", "tab", 0, 0) {
		t.Error("seeds 1 and 2 collide on the first variate")
	}
}

// driveOps performs a fixed workload against an injector and returns its
// fault records.
func driveOps(t *testing.T, seed int64) []Record {
	t.Helper()
	inj := NewInjector(Schedule{Seed: seed, StoreErrRate: 0.3, MQErrRate: 0.3, MQDupRate: 0.3})
	store := Wrap(memstore.New(memstore.WithParts(4)), inj)
	t.Cleanup(func() { _ = store.Close() })
	tab, err := store.CreateTable("det")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		_ = tab.Put(i, i)
		_, _, _ = tab.Get(i)
		inj.PutFault("det.q", i%4)
	}
	return inj.Records()
}

func TestInjectorDeterminism(t *testing.T) {
	a, b := driveOps(t, 7), driveOps(t, 7)
	if len(a) == 0 {
		t.Fatal("no faults injected at 30% rates over 150 ops")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged:\n%v\nvs\n%v", a, b)
	}
	if c := driveOps(t, 8); reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 injected identical fault sets")
	}
}

func TestWrapCapabilityPassthrough(t *testing.T) {
	plain := Wrap(memstore.New(memstore.WithParts(2)), NewInjector(Schedule{}))
	t.Cleanup(func() { _ = plain.Close() })
	if _, ok := plain.(kvstore.Transactional); ok {
		t.Error("wrapped memstore claims Transactional")
	}
	if _, ok := plain.(kvstore.Replicated); ok {
		t.Error("wrapped memstore claims Replicated")
	}

	full := Wrap(gridstore.New(gridstore.WithParts(2), gridstore.WithReplicas(2)), NewInjector(Schedule{}))
	t.Cleanup(func() { _ = full.Close() })
	if _, ok := full.(kvstore.Transactional); !ok {
		t.Error("wrapped gridstore lost Transactional")
	}
	if _, ok := full.(kvstore.Replicated); !ok {
		t.Error("wrapped gridstore lost Replicated")
	}
	if _, ok := full.(kvstore.Healer); !ok {
		t.Error("wrapped gridstore lost Healer")
	}
	if _, ok := full.(kvstore.FailureSensor); !ok {
		t.Error("wrapped gridstore lost FailureSensor")
	}
}

func TestStoreFaultIsTransientAndEntryOnly(t *testing.T) {
	inj := NewInjector(Schedule{Seed: 1, StoreErrRate: 1})
	store := Wrap(memstore.New(memstore.WithParts(2)), inj)
	t.Cleanup(func() { _ = store.Close() })
	tab, err := store.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Put("k", "v"); !errors.Is(err, kvstore.ErrTransient) {
		t.Fatalf("Put err = %v, want ErrTransient", err)
	}
	// Rate 1 fails every op; the failed Put must have had no effect.
	inner, _ := store.(*Store)
	raw, _ := inner.inner.LookupTable("t")
	if n, _ := raw.Size(); n != 0 {
		t.Errorf("failed Put took effect: size %d", n)
	}
	recs := inj.Records()
	if len(recs) == 0 || recs[0].Kind != "store.err" {
		t.Errorf("records = %v", recs)
	}
}

func TestMQFaultShapes(t *testing.T) {
	inj := NewInjector(Schedule{Seed: 3, MQErrRate: 1})
	f := inj.PutFault("q", 0)
	if !errors.Is(f.Err, mq.ErrTransient) {
		t.Errorf("fault err = %v, want ErrTransient", f.Err)
	}
	inj = NewInjector(Schedule{Seed: 3, MQDupRate: 1, MQDelay: time.Millisecond, MQDelayRate: 1})
	f = inj.PutFault("q", 0)
	if f.Err != nil || f.Duplicates != 1 || f.Delay != time.Millisecond {
		t.Errorf("fault = %+v, want dup 1 delay 1ms", f)
	}
}

func TestScheduledKillFiresAndRearms(t *testing.T) {
	gs := gridstore.New(gridstore.WithParts(2), gridstore.WithReplicas(2))
	inj := NewInjector(Schedule{Seed: 1, Kills: []Kill{{Table: "late", Part: 0, AfterDispatches: 1}}})
	store := Wrap(gs, inj)
	t.Cleanup(func() { _ = store.Close() })
	if _, err := store.CreateTable("host"); err != nil {
		t.Fatal(err)
	}
	noop := func(sv kvstore.ShardView) (any, error) { return nil, nil }

	// Dispatches 1..3: the kill is due from dispatch 2 on, but its target
	// table does not exist yet — it must stay armed, not fire into the void.
	for i := 0; i < 3; i++ {
		if _, err := store.RunAgent("host", 0, noop); err != nil {
			t.Fatal(err)
		}
	}
	if got := gs.Failovers(); got != 0 {
		t.Fatalf("kill fired before target existed: %d failovers", got)
	}
	if _, err := store.CreateTable("late"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.RunAgent("host", 0, noop); err != nil {
		t.Fatal(err)
	}
	if got := gs.Failovers(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	// Fired once: further dispatches must not re-kill.
	if _, err := store.RunAgent("host", 0, noop); err != nil {
		t.Fatal(err)
	}
	if got := gs.Failovers(); got != 1 {
		t.Fatalf("kill fired twice: %d failovers", got)
	}
	recs := inj.Records()
	if len(recs) != 1 || recs[0].Kind != "kill" || recs[0].Name != "late" {
		t.Errorf("records = %v, want one kill on late", recs)
	}
}

// slowKillStore is a Replicated store whose first FailPrimary does not return
// until released, holding open the window in which other dispatches run.
type slowKillStore struct {
	kvstore.Store // nil: only the methods below are reached
	mu            sync.Mutex
	kills         int
	entered       chan struct{} // closed when the first FailPrimary starts
	release       chan struct{}
}

func (s *slowKillStore) Name() string  { return "slowkill" }
func (s *slowKillStore) Replicas() int { return 2 }

func (s *slowKillStore) RunAgent(string, int, kvstore.Agent) (any, error) { return nil, nil }

func (s *slowKillStore) FailPrimary(string, int) error {
	s.mu.Lock()
	s.kills++
	first := s.kills == 1
	s.mu.Unlock()
	if first {
		close(s.entered)
		<-s.release
	}
	return nil
}

// The engine dispatches a step's parts concurrently; a scheduled kill that
// becomes due must be executed by exactly one of those dispatches. Killing
// the same primary twice with two replicas and no Heal loses the part.
func TestScheduledKillFiresOnceUnderConcurrentDispatch(t *testing.T) {
	fake := &slowKillStore{entered: make(chan struct{}), release: make(chan struct{})}
	inj := NewInjector(Schedule{Seed: 1, Kills: []Kill{{Table: "t", Part: 0, AfterDispatches: 0}}})
	store := Wrap(fake, inj)

	first := make(chan struct{})
	go func() {
		defer close(first)
		_, _ = store.RunAgent("t", 0, nil)
	}()
	<-fake.entered // dispatch 0 is inside FailPrimary; the kill has not returned

	// Only the first FailPrimary blocks, so the other dispatches run to
	// completion inside that window.
	var others sync.WaitGroup
	for p := 1; p < 6; p++ {
		others.Add(1)
		go func(p int) {
			defer others.Done()
			_, _ = store.RunAgent("t", p, nil)
		}(p)
	}
	others.Wait()
	close(fake.release)
	<-first

	if fake.kills != 1 {
		t.Errorf("FailPrimary called %d times for one scheduled kill, want 1", fake.kills)
	}
	if recs := inj.Records(); len(recs) != 1 || recs[0].Kind != "kill" {
		t.Errorf("records = %v, want one kill", recs)
	}
}
