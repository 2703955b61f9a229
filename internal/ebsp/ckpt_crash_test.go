package ebsp

// Tests of the checkpoint commit protocol: a Resume golden over every store,
// a crash gate that kills the store at every SPI call of a checkpointed job,
// and the counter gate on what one checkpoint and one restore ask of a store.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync/atomic"
	"testing"

	"ripple/internal/codec"
	"ripple/internal/diskstore"
	"ripple/internal/gridstore"
	"ripple/internal/kvstore"
	"ripple/internal/memstore"
	"ripple/internal/netstore"
)

// goldenJob has a partitioned and a ubiquitous state table and an
// aggregator; its key set grows and its ubiquitous entries come and go, so a
// restore must delete what the snapshot lacks as well as put what it holds.
func goldenJob(name string, aborter Aborter) *Job {
	return &Job{
		Name:        name,
		StateTables: []string{name + "_part", name + "_ubiq"},
		Aggregators: map[string]Aggregator{"sum": IntSum{}},
		Aborter:     aborter,
		Compute: ComputeFunc(func(ctx *Context) bool {
			k, step := ctx.Key().(int), ctx.StepNum()
			total := 0
			for _, m := range ctx.InputMessages() {
				total += m.(int)
			}
			agg, _ := ctx.AggregateResult("sum").(int)
			prev, _ := ctx.ReadState(0)
			p, _ := prev.(int)
			ctx.WriteState(0, p+total+agg%5)
			if step%3 == 0 {
				ctx.DeleteState(1)
			} else {
				ctx.WriteState(1, []int{step, total})
			}
			ctx.AggregateValue("sum", total)
			if step < 10 {
				ctx.Send((k*5+3)%16, total%7+1)
				ctx.Send((k+1)%16, 1)
			}
			return false
		}),
		Loaders: []Loader{&MessageLoader{Messages: []InitialMessage{{Key: 0, Message: 1}}}},
	}
}

// storeDigest hashes the given tables' pairs, codec-encoded, each part's in
// EnumerateOrdered order, read by agents at placement's parts.
func storeDigest(t *testing.T, store kvstore.Store, placement string, tables ...string) string {
	t.Helper()
	pl, ok := store.LookupTable(placement)
	if !ok {
		t.Fatalf("table %q missing", placement)
	}
	h := sha256.New()
	for _, name := range tables {
		tab, ok := store.LookupTable(name)
		if !ok {
			t.Fatalf("table %q missing", name)
		}
		var pairs [][2][]byte
		for p := 0; p < pl.Parts() && (p == 0 || !tab.Ubiquitous()); p++ {
			_, err := store.RunAgent(placement, p, func(sv kvstore.ShardView) (any, error) {
				pv, err := sv.View(name)
				if err != nil {
					return nil, err
				}
				return nil, pv.EnumerateOrdered(func(k, v any) (bool, error) {
					ek, err := codec.Encode(k)
					if err != nil {
						return true, err
					}
					ev, err := codec.Encode(v)
					pairs = append(pairs, [2][]byte{ek, ev})
					return false, err
				})
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		sort.Slice(pairs, func(i, j int) bool { return bytes.Compare(pairs[i][0], pairs[j][0]) < 0 })
		fmt.Fprintf(h, "%s %d\n", name, len(pairs))
		for _, kv := range pairs {
			fmt.Fprintf(h, "%x=%x\n", kv[0], kv[1])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// reopenCheckpoint reopens, on a store that lost its catalogue, a job's
// first state table (the placement, with parts parts), its other state
// tables (ubiq[i] says whether state table i is ubiquitous) and every table
// that holds the job's checkpoint.
func reopenCheckpoint(t *testing.T, store kvstore.Store, job *Job, parts int, ubiq []bool) {
	t.Helper()
	placement := job.StateTables[0]
	open := func(name string, u bool) {
		opt := kvstore.ConsistentWith(placement)
		if u {
			opt = kvstore.Ubiquitous()
		}
		if name == placement {
			opt = kvstore.WithParts(parts)
		}
		if _, err := kvstore.OpenOrCreate(store, name, opt); err != nil {
			t.Fatalf("reopen %q: %v", name, err)
		}
	}
	for i, name := range job.StateTables {
		open(name, ubiq[i])
	}
	meta, slots := CheckpointTables(job.Name, len(job.StateTables))
	open(meta, false)
	for _, slot := range slots {
		for i, name := range slot {
			open(name, i > 0 && ubiq[i-1])
		}
	}
}

// dialTestFleet serves n in-process part-servers on loopback and dials them
// with two replicas.
func dialTestFleet(t *testing.T, n int) *netstore.Client {
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
	c, err := netstore.Dial(addrs, netstore.WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestResumeGoldenOnEveryStore aborts goldenJob after step 5 (its last
// checkpoint is step 4's) and resumes it on every store; each must end with
// the tables of an uninterrupted memstore run. The diskstore is closed and
// reopened between the two, its tables reopened by name.
func TestResumeGoldenOnEveryStore(t *testing.T) {
	const name, parts = "golden", 4
	const want = "8205c719d4077572baab7b0d2db47bcd62991af54e367796ec0d45ddf52d9a52"
	tables := goldenJob(name, nil).StateTables
	ref := memstore.New(memstore.WithParts(parts))
	t.Cleanup(func() { _ = ref.Close() })
	if _, err := NewEngine(ref).Run(goldenJob(name, nil)); err != nil {
		t.Fatal(err)
	}
	golden := storeDigest(t, ref, tables[0], tables...)
	if golden != want {
		t.Errorf("uninterrupted memstore run digests to %s, want %s", golden, want)
	}

	newTables := func(s kvstore.Store) {
		if _, err := s.CreateTable(tables[0], kvstore.WithParts(parts)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CreateTable(tables[1], kvstore.Ubiquitous()); err != nil {
			t.Fatal(err)
		}
	}
	abortRun := func(s kvstore.Store) {
		newTables(s)
		res, err := NewEngine(s, WithCheckpoints(2)).Run(goldenJob(name, crashAfter(5)))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Aborted || res.Steps != 5 {
			t.Fatalf("aborted run: aborted=%v steps=%d", res.Aborted, res.Steps)
		}
	}
	resume := func(s kvstore.Store) {
		res, err := NewEngine(s, WithCheckpoints(2)).Resume(goldenJob(name, nil))
		if err != nil {
			t.Fatal(err)
		}
		if res.Aborted {
			t.Fatal("resumed run aborted")
		}
		if got := storeDigest(t, s, tables[0], tables...); got != golden {
			t.Errorf("resumed tables digest to %s, want the uninterrupted run's %s", got, golden)
		}
	}
	for _, s := range []struct {
		name string
		new  func() kvstore.Store
	}{
		{"memstore", func() kvstore.Store { return memstore.New(memstore.WithParts(parts)) }},
		{"gridstore", func() kvstore.Store {
			return gridstore.New(gridstore.WithParts(parts), gridstore.WithReplicas(2))
		}},
		{"netstore", func() kvstore.Store { return dialTestFleet(t, 3) }},
	} {
		t.Run(s.name, func(t *testing.T) {
			store := s.new()
			t.Cleanup(func() { _ = store.Close() })
			abortRun(store)
			resume(store)
		})
	}
	t.Run("diskstore", func(t *testing.T) {
		dir := t.TempDir()
		s1, err := diskstore.New(dir, diskstore.WithParts(parts))
		if err != nil {
			t.Fatal(err)
		}
		abortRun(s1)
		if err := s1.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := diskstore.New(dir, diskstore.WithParts(parts))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s2.Close() })
		reopenCheckpoint(t, s2, goldenJob(name, nil), parts, []bool{false, true})
		resume(s2)
	})
}

// dyingStore stands in for a process that dies at its at-th store call:
// from that call on every store, table and part-view operation answers
// ErrClosed and no agent runs. Calls are the Store and Table methods that
// reach the store, Flush included. It notes whether a checkpoint had
// committed: its meta Put returned and, on a store that buffers writes, a
// Flush returned after it.
type dyingStore struct {
	kvstore.Store
	at        int64 // the call that dies
	calls     atomic.Int64
	meta      string // the job's checkpoint meta table
	put       atomic.Bool
	committed atomic.Bool
}

func newDyingStore(inner kvstore.Store, at int64, job string) *dyingStore {
	s := &dyingStore{Store: inner, at: at}
	s.meta, _ = CheckpointTables(job, 0)
	return s
}

// call books one call and reports whether the store is still alive for it.
func (s *dyingStore) call() error {
	if s.calls.Add(1) >= s.at {
		return kvstore.ErrClosed
	}
	return nil
}

func (s *dyingStore) dead() bool { return s.calls.Load() >= s.at }

func (s *dyingStore) wrap(t kvstore.Table) kvstore.Table { return &dyingTable{Table: t, s: s} }

func (s *dyingStore) CreateTable(name string, opts ...kvstore.TableOption) (kvstore.Table, error) {
	if err := s.call(); err != nil {
		return nil, err
	}
	t, err := s.Store.CreateTable(name, opts...)
	if err != nil {
		return nil, err
	}
	return s.wrap(t), nil
}

func (s *dyingStore) LookupTable(name string) (kvstore.Table, bool) {
	if s.call() != nil {
		return nil, false
	}
	t, ok := s.Store.LookupTable(name)
	if !ok {
		return nil, false
	}
	return s.wrap(t), true
}

func (s *dyingStore) DropTable(name string) error {
	if err := s.call(); err != nil {
		return err
	}
	return s.Store.DropTable(name)
}

func (s *dyingStore) RunAgent(table string, part int, agent kvstore.Agent) (any, error) {
	if err := s.call(); err != nil {
		return nil, err
	}
	return s.Store.RunAgent(table, part, func(sv kvstore.ShardView) (any, error) {
		return agent(&dyingShard{ShardView: sv, s: s})
	})
}

func (s *dyingStore) Flush() error {
	if err := s.call(); err != nil {
		return err
	}
	err := kvstore.Flush(s.Store)
	if err == nil && s.put.Load() {
		s.committed.Store(true)
	}
	return err
}

type dyingTable struct {
	kvstore.Table
	s *dyingStore
}

func (t *dyingTable) Get(k any) (any, bool, error) {
	if err := t.s.call(); err != nil {
		return nil, false, err
	}
	return t.Table.Get(k)
}

func (t *dyingTable) Put(k, v any) error {
	if err := t.s.call(); err != nil {
		return err
	}
	err := t.Table.Put(k, v)
	if err == nil && t.Name() == t.s.meta {
		t.s.put.Store(true)
		if _, buffered := t.s.Store.(kvstore.Flusher); !buffered {
			t.s.committed.Store(true)
		}
	}
	return err
}

func (t *dyingTable) Delete(k any) error {
	if err := t.s.call(); err != nil {
		return err
	}
	return t.Table.Delete(k)
}

func (t *dyingTable) Size() (int, error) {
	if err := t.s.call(); err != nil {
		return 0, err
	}
	return t.Table.Size()
}

func (t *dyingTable) EnumerateParts(pc kvstore.PartConsumer) (any, error) {
	if err := t.s.call(); err != nil {
		return nil, err
	}
	return t.Table.EnumerateParts(pc)
}

func (t *dyingTable) EnumeratePairs(pc kvstore.PairConsumer) (any, error) {
	if err := t.s.call(); err != nil {
		return nil, err
	}
	return t.Table.EnumeratePairs(pc)
}

type dyingShard struct {
	kvstore.ShardView
	s *dyingStore
}

func (sv *dyingShard) View(table string) (kvstore.PartView, error) {
	if sv.s.dead() {
		return nil, kvstore.ErrClosed
	}
	pv, err := sv.ShardView.View(table)
	if err != nil {
		return nil, err
	}
	return &dyingView{PartView: pv, s: sv.s}, nil
}

// dyingView fails every operation once its store is dead, so an agent
// already running when the store dies stops where it is.
type dyingView struct {
	kvstore.PartView
	s *dyingStore
}

func (v *dyingView) alive() error {
	if v.s.dead() {
		return kvstore.ErrClosed
	}
	return nil
}

func (v *dyingView) Get(k any) (any, bool, error) {
	if err := v.alive(); err != nil {
		return nil, false, err
	}
	return v.PartView.Get(k)
}

func (v *dyingView) Put(k, val any) error {
	if err := v.alive(); err != nil {
		return err
	}
	return v.PartView.Put(k, val)
}

func (v *dyingView) Delete(k any) error {
	if err := v.alive(); err != nil {
		return err
	}
	return v.PartView.Delete(k)
}

func (v *dyingView) Len() (int, error) {
	if err := v.alive(); err != nil {
		return 0, err
	}
	return v.PartView.Len()
}

func (v *dyingView) Enumerate(fn kvstore.PairFunc) error {
	if err := v.alive(); err != nil {
		return err
	}
	return v.PartView.Enumerate(fn)
}

func (v *dyingView) EnumerateOrdered(fn kvstore.PairFunc) error {
	if err := v.alive(); err != nil {
		return err
	}
	return v.PartView.EnumerateOrdered(fn)
}

// crashCase is one leg of the crash gate: a store that dies at call k, and
// how the job's survivor is found after the death.
type crashCase struct {
	name  string
	every int
	job   func(aborter Aborter) *Job
	// open returns a fresh inner store; reopen returns what survives of it
	// after the death, and a cleanup to run once the leg is checked.
	open   func(t *testing.T) kvstore.Store
	reopen func(t *testing.T, dead kvstore.Store) (kvstore.Store, func())
	// stale leaves an aborted run's checkpoint behind before the fresh Run.
	stale bool
}

// TestCheckpointSurvivesDeathAtEveryCall kills the store at every SPI call
// k of a checkpointed job and resumes on what survives. For every k, Resume
// must reach the uninterrupted run's final tables; it may answer
// ErrNoCheckpoint only when no checkpoint had committed. A Run that returned
// nil finished its job: its tables must already be final, or, on a store
// that lost its unflushed writes, be resumable.
func TestCheckpointSurvivesDeathAtEveryCall(t *testing.T) {
	chain := func(a Aborter) *Job { return checkpointChainJob("crash", 20, a) }
	golden := func(a Aborter) *Job { return goldenJob("crash", a) }
	mem := func(*testing.T) kvstore.Store { return memstore.New(memstore.WithParts(4)) }
	same := func(_ *testing.T, s kvstore.Store) (kvstore.Store, func()) {
		return s, func() { _ = s.Close() }
	}
	dirs := map[kvstore.Store]string{}
	cases := []crashCase{
		{name: "memstore-chain", every: 3, job: chain, open: mem, reopen: same},
		{name: "memstore-golden", every: 2, job: golden, open: mem, reopen: same},
		{name: "memstore-fresh-over-stale", every: 3, job: chain, open: mem, reopen: same, stale: true},
		{name: "diskstore-chain", every: 3, job: func(a Aborter) *Job { return checkpointChainJob("crash", 12, a) },
			open: func(t *testing.T) kvstore.Store {
				dir := t.TempDir()
				s, err := diskstore.New(dir, diskstore.WithParts(2))
				if err != nil {
					t.Fatal(err)
				}
				dirs[s] = dir
				return s
			},
			reopen: func(t *testing.T, dead kvstore.Store) (kvstore.Store, func()) {
				// The dead handle is abandoned without Close: what it had
				// not flushed is lost. It is closed only once the survivor
				// is checked, and its directory is never read again.
				s, err := diskstore.New(dirs[dead], diskstore.WithParts(2))
				if err != nil {
					t.Fatal(err)
				}
				reopenCheckpoint(t, s, checkpointChainJob("crash", 12, nil), 2, []bool{false})
				return s, func() { _ = s.Close(); _ = dead.Close() }
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tables := tc.job(nil).StateTables
			digest := func(s kvstore.Store) string { return storeDigest(t, s, tables[0], tables...) }
			prepare := func() kvstore.Store {
				s := tc.open(t)
				if len(tables) > 1 { // goldenJob: its placement first
					if _, err := s.CreateTable(tables[0], kvstore.WithParts(4)); err != nil {
						t.Fatal(err)
					}
					if _, err := s.CreateTable(tables[1], kvstore.Ubiquitous()); err != nil {
						t.Fatal(err)
					}
				}
				if tc.stale {
					if _, err := NewEngine(s, WithCheckpoints(tc.every)).Run(tc.job(crashAfter(7))); err != nil {
						t.Fatal(err)
					}
				}
				return s
			}
			// The uninterrupted run: its tables and its number of calls.
			ref := prepare()
			full := newDyingStore(ref, math.MaxInt64, tc.job(nil).Name)
			if _, err := NewEngine(full, WithCheckpoints(tc.every)).Run(tc.job(nil)); err != nil {
				t.Fatal(err)
			}
			want, calls := digest(ref), full.calls.Load()
			_ = ref.Close()

			var wrong, lost, resumed int
			for k := int64(1); k <= calls; k++ {
				inner := prepare()
				ds := newDyingStore(inner, k, tc.job(nil).Name)
				_, runErr := NewEngine(ds, WithCheckpoints(tc.every)).Run(tc.job(nil))
				s, cleanup := tc.reopen(t, inner)
				if runErr == nil && digest(s) == want {
					cleanup()
					continue
				}
				_, err := NewEngine(s, WithCheckpoints(tc.every)).Resume(tc.job(nil))
				switch {
				case errors.Is(err, ErrNoCheckpoint) && !ds.committed.Load():
				case errors.Is(err, ErrNoCheckpoint):
					lost++
					t.Errorf("k=%d: a committed checkpoint is lost: %v", k, err)
				case err != nil:
					t.Errorf("k=%d: Resume: %v", k, err)
				case digest(s) != want:
					wrong++
					t.Errorf("k=%d: Resume returned nil over wrong tables", k)
				default:
					resumed++
				}
				cleanup()
			}
			t.Logf("%d calls: %d resumed, %d wrong answers, %d lost checkpoints", calls, resumed, wrong, lost)
		})
	}
}

// countingStore counts what the engine asks of a store: table-handle data
// operations, agents, and DDL (CreateTable, DropTable).
type countingStore struct {
	kvstore.Store
	data, agents, ddl atomic.Int64
}

func (s *countingStore) counts() [3]int64 {
	return [3]int64{s.data.Load(), s.agents.Load(), s.ddl.Load()}
}

func (s *countingStore) CreateTable(name string, opts ...kvstore.TableOption) (kvstore.Table, error) {
	s.ddl.Add(1)
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

func (s *countingStore) DropTable(name string) error {
	s.ddl.Add(1)
	return s.Store.DropTable(name)
}

func (s *countingStore) RunAgent(table string, part int, agent kvstore.Agent) (any, error) {
	s.agents.Add(1)
	return s.Store.RunAgent(table, part, agent)
}

type countingTable struct {
	kvstore.Table
	s *countingStore
}

func (t *countingTable) Get(k any) (any, bool, error) {
	t.s.data.Add(1)
	return t.Table.Get(k)
}

func (t *countingTable) Put(k, v any) error {
	t.s.data.Add(1)
	return t.Table.Put(k, v)
}

func (t *countingTable) Delete(k any) error {
	t.s.data.Add(1)
	return t.Table.Delete(k)
}

func (t *countingTable) Size() (int, error) {
	t.s.data.Add(1)
	return t.Table.Size()
}

func (t *countingTable) EnumerateParts(pc kvstore.PartConsumer) (any, error) {
	t.s.data.Add(1)
	return t.Table.EnumerateParts(pc)
}

func (t *countingTable) EnumeratePairs(pc kvstore.PairConsumer) (any, error) {
	t.s.data.Add(1)
	return t.Table.EnumeratePairs(pc)
}

// TestCheckpointBudget is the counter gate on checkpoints. A checkpoint is
// what the engine does between a step's observer call and its aborter call
// when the step is due one; it must be one table-handle data op (the meta
// Put) and one agent per part, and after the job's first checkpoint no table
// is created or dropped. A restore — a Resume at the job's last step, which
// runs no step — must be one agent per part and no handle data op besides
// the meta Get that finds the checkpoint. When each pair crossed the table
// handle, the checkpoints at steps 2 to 12 made 6, 8, ... 16 data ops
// (growing with the pairs copied), no agents and 6 DDL calls each, and the
// restore 30 data ops and no agents.
func TestCheckpointBudget(t *testing.T) {
	const parts, every, last = 4, 2, 12
	store := &countingStore{Store: memstore.New(memstore.WithParts(parts))}
	t.Cleanup(func() { _ = store.Close() })
	var at, first [3]int64
	var windows [][3]int64
	observe := WithObserver(StepObserverFunc(func(info StepInfo) {
		at = store.counts()
		if info.Step == 1 {
			first = at
		}
	}))
	job := func(aborter Aborter) *Job {
		j := checkpointChainJob("budget", 20, aborter)
		j.MaxSteps = last
		return j
	}
	var end [3]int64
	res, err := NewEngine(store, WithCheckpoints(every), observe).Run(job(AborterFunc(func(step int, _ map[string]any) bool {
		end = store.counts()
		if step%every == 0 {
			windows = append(windows, [3]int64{end[0] - at[0], end[1] - at[1], end[2] - at[2]})
		}
		return step >= last
	})))
	if err != nil || !res.Aborted {
		t.Fatalf("run: %v, aborted %v", err, res != nil && res.Aborted)
	}
	if len(windows) != last/every {
		t.Fatalf("%d checkpoints after step 0, want %d", len(windows), last/every)
	}
	for i, w := range windows {
		if w != [3]int64{1, parts, 0} {
			t.Errorf("checkpoint at step %d: %d handle data ops, %d agents, %d DDL; want 1, %d, 0",
				(i+1)*every, w[0], w[1], w[2], parts)
		}
	}
	if end[2] != first[2] {
		t.Errorf("%d tables created or dropped after the first checkpoint, want 0", end[2]-first[2])
	}

	before := store.counts()
	if _, err := NewEngine(store, WithCheckpoints(every)).Resume(job(nil)); err != nil {
		t.Fatal(err)
	}
	after := store.counts()
	if d := [2]int64{after[0] - before[0], after[1] - before[1]}; d != [2]int64{1, parts} {
		t.Errorf("restore: %d handle data ops, %d agents; want 1 (the meta Get), %d", d[0], d[1], parts)
	}
	tab, _ := store.LookupTable("budget_state")
	for i := 0; i < last; i++ {
		if v, ok, _ := tab.Get(i); !ok || v != i+1 {
			t.Errorf("state[%d] = %v, %v after the restore", i, v, ok)
		}
	}
}

// TestPlacementSkipsUbiquitousTables runs goldenJob to completion on every
// store with both of its tables created beforehand, with only the
// ubiquitous one, and with neither: a ubiquitous table has no parts to place
// the job at, so which tables exist must not change the answer. A job that
// names a ubiquitous table as its placement is refused.
func TestPlacementSkipsUbiquitousTables(t *testing.T) {
	const name, parts = "golden", 4
	const want = "8205c719d4077572baab7b0d2db47bcd62991af54e367796ec0d45ddf52d9a52"
	tables := goldenJob(name, nil).StateTables
	stores := []struct {
		name string
		new  func() kvstore.Store
	}{
		{"memstore", func() kvstore.Store { return memstore.New(memstore.WithParts(parts)) }},
		{"gridstore", func() kvstore.Store {
			return gridstore.New(gridstore.WithParts(parts), gridstore.WithReplicas(2))
		}},
		{"netstore", func() kvstore.Store { return dialTestFleet(t, 3) }},
		{"diskstore", func() kvstore.Store {
			s, err := diskstore.New(t.TempDir(), diskstore.WithParts(parts))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	for _, s := range stores {
		for _, pre := range []struct {
			name       string
			part, ubiq bool
		}{{"both", true, true}, {"ubiquitous-only", false, true}, {"neither", false, false}} {
			t.Run(s.name+"/"+pre.name, func(t *testing.T) {
				store := s.new()
				t.Cleanup(func() { _ = store.Close() })
				if pre.part {
					if _, err := store.CreateTable(tables[0], kvstore.WithParts(parts)); err != nil {
						t.Fatal(err)
					}
				}
				if pre.ubiq {
					if _, err := store.CreateTable(tables[1], kvstore.Ubiquitous()); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := NewEngine(store).Run(goldenJob(name, nil)); err != nil {
					t.Fatal(err)
				}
				if got := storeDigest(t, store, tables[0], tables...); got != want {
					t.Errorf("tables digest to %s, want %s", got, want)
				}
			})
		}
	}
	t.Run("explicit-ubiquitous-placement", func(t *testing.T) {
		store := memstore.New(memstore.WithParts(parts))
		t.Cleanup(func() { _ = store.Close() })
		if _, err := store.CreateTable(tables[1], kvstore.Ubiquitous()); err != nil {
			t.Fatal(err)
		}
		job := goldenJob(name, nil)
		job.Placement = tables[1]
		if _, err := NewEngine(store).Run(job); !errors.Is(err, ErrBadJob) {
			t.Errorf("placement on a ubiquitous table: err = %v, want ErrBadJob", err)
		}
	})
}
