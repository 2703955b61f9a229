package diskstore

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"ripple/internal/kvstore"
	"ripple/internal/metrics"
)

func newStore(t *testing.T, opts ...Option) *Store {
	t.Helper()
	s, err := New(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestDiskBasicOps(t *testing.T) {
	s := newStore(t)
	tab, err := s.CreateTable("t", kvstore.WithParts(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Put(1, "one"); err != nil {
		t.Fatal(err)
	}
	if err := tab.Put(2, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tab.Get(1)
	if err != nil || !ok || v != "one" {
		t.Fatalf("Get = %v %v %v", v, ok, err)
	}
	if err := tab.Put(1, "uno"); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := tab.Get(1); v != "uno" {
		t.Errorf("overwrite = %v", v)
	}
	if err := tab.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tab.Get(1); ok {
		t.Error("deleted key visible")
	}
	if n, _ := tab.Size(); n != 1 {
		t.Errorf("Size = %d", n)
	}
}

func TestDiskPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := s.CreateTable("t", kvstore.WithParts(2))
	for i := 0; i < 50; i++ {
		if err := tab.Put(i, i*2); err != nil {
			t.Fatal(err)
		}
	}
	_ = tab.Delete(10)
	_ = tab.Put(11, "replaced")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	tab2, err := s2.CreateTable("t", kvstore.WithParts(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tab2.Get(10); ok {
		t.Error("deleted key resurrected after reopen")
	}
	if v, _, _ := tab2.Get(11); v != "replaced" {
		t.Errorf("key 11 = %v", v)
	}
	if v, _, _ := tab2.Get(42); v != 84 {
		t.Errorf("key 42 = %v", v)
	}
	if n, _ := tab2.Size(); n != 49 {
		t.Errorf("Size after reopen = %d, want 49", n)
	}
}

func TestDiskEnumerate(t *testing.T) {
	s := newStore(t)
	tab, _ := s.CreateTable("t", kvstore.WithParts(2))
	for i := 0; i < 30; i++ {
		_ = tab.Put(i, i)
	}
	sum := 0
	err := kvstore.EnumerateAll(tab, func(k, v any) (bool, error) {
		sum += v.(int)
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 29*30/2 {
		t.Errorf("sum = %d", sum)
	}
}

func TestDiskAgentAndOrderedEnumeration(t *testing.T) {
	s := newStore(t)
	tab, _ := s.CreateTable("t", kvstore.WithParts(2))
	for _, k := range []int{9, 1, 5, 3, 7} {
		_ = tab.Put(k, k)
	}
	for p := 0; p < 2; p++ {
		_, err := s.RunAgent("t", p, func(sv kvstore.ShardView) (any, error) {
			view, err := sv.View("t")
			if err != nil {
				return nil, err
			}
			prev := -1
			return nil, view.EnumerateOrdered(func(k, v any) (bool, error) {
				if k.(int) <= prev {
					t.Errorf("out of order: %v after %d", k, prev)
				}
				prev = k.(int)
				return false, nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestDiskDropRemovesData(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	tab, _ := s.CreateTable("t", kvstore.WithParts(1))
	_ = tab.Put("a", 1)
	if err := s.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	tab2, err := s.CreateTable("t", kvstore.WithParts(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tab2.Get("a"); ok {
		t.Error("data survived drop+recreate")
	}
}

func TestDiskConsistentPartitioning(t *testing.T) {
	s := newStore(t)
	a, _ := s.CreateTable("a", kvstore.WithParts(3))
	b, err := s.CreateTable("b", kvstore.ConsistentWith("a"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a.PartOf(i) != b.PartOf(i) {
			t.Fatalf("inconsistent partitioning at key %d", i)
		}
	}
}

func TestDiskErrors(t *testing.T) {
	s := newStore(t)
	if _, err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t"); !errors.Is(err, kvstore.ErrTableExists) {
		t.Errorf("dup create err = %v", err)
	}
	if err := s.DropTable("missing"); !errors.Is(err, kvstore.ErrNoTable) {
		t.Errorf("drop missing err = %v", err)
	}
	if _, err := s.RunAgent("t", 99, func(kvstore.ShardView) (any, error) { return nil, nil }); !errors.Is(err, kvstore.ErrBadPart) {
		t.Errorf("bad part err = %v", err)
	}
}

func TestDiskTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := s.CreateTable("t", kvstore.WithParts(1))
	_ = tab.Put("good", 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the log by appending a partial record.
	path := s.logPath("t", 0)
	f, err := openAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{opPut, 0, 0}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	s2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	tab2, err := s2.CreateTable("t", kvstore.WithParts(1))
	if err != nil {
		t.Fatalf("replay with truncated tail: %v", err)
	}
	if v, ok, _ := tab2.Get("good"); !ok || v != 1 {
		t.Errorf("good = %v %v", v, ok)
	}
	// Store remains writable after recovery.
	if err := tab2.Put("more", 2); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := tab2.Get("more"); v != 2 {
		t.Errorf("more = %v", v)
	}
}

func TestCompactShrinksLogAndPreservesData(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	tab, _ := s.CreateTable("t", kvstore.WithParts(2))
	// Churn: many overwrites and deletes leave dead records in the log.
	for round := 0; round < 20; round++ {
		for i := 0; i < 50; i++ {
			if err := tab.Put(i, round*1000+i); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 25; i++ {
		_ = tab.Delete(i)
	}
	before, err := s.LogSize("t")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact("t"); err != nil {
		t.Fatal(err)
	}
	after, _ := s.LogSize("t")
	if after >= before {
		t.Errorf("log did not shrink: %d -> %d", before, after)
	}
	// Data survive compaction.
	if n, _ := tab.Size(); n != 25 {
		t.Errorf("Size = %d, want 25", n)
	}
	for i := 25; i < 50; i++ {
		v, ok, _ := tab.Get(i)
		if !ok || v != 19*1000+i {
			t.Errorf("t[%d] = %v, %v", i, v, ok)
		}
	}
	// And the table is still writable.
	if err := tab.Put(99, "post-compact"); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := tab.Get(99); v != "post-compact" {
		t.Errorf("post-compact put = %v", v)
	}
}

func TestCompactSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := New(dir)
	tab, _ := s.CreateTable("t", kvstore.WithParts(1))
	for i := 0; i < 30; i++ {
		_ = tab.Put(i, i)
		_ = tab.Put(i, i*2) // overwrite
	}
	if err := s.Compact("t"); err != nil {
		t.Fatal(err)
	}
	_ = s.Close()

	s2, _ := New(dir)
	defer func() { _ = s2.Close() }()
	tab2, err := s2.CreateTable("t", kvstore.WithParts(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if v, _, _ := tab2.Get(i); v != i*2 {
			t.Errorf("t[%d] = %v, want %d", i, v, i*2)
		}
	}
}

func TestCompactMissingTable(t *testing.T) {
	s := newStore(t)
	if err := s.Compact("nope"); !errors.Is(err, kvstore.ErrNoTable) {
		t.Errorf("err = %v", err)
	}
}

// TestUbiquitousTableSurvivesReopen pins that a ubiquitous table is as
// durable as a partitioned one: its pairs come back after a clean close.
func TestUbiquitousTableSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	u, err := s.CreateTable("u", kvstore.Ubiquitous())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := u.Put(i, fmt.Sprintf("cfg-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	u2, err := s2.CreateTable("u", kvstore.Ubiquitous())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		v, ok, err := u2.Get(i)
		switch {
		case err != nil:
			t.Fatalf("Get(%d): %v", i, err)
		case i == 3 && ok:
			t.Errorf("deleted key 3 resurrected as %v", v)
		case i != 3 && (!ok || v != fmt.Sprintf("cfg-%d", i)):
			t.Errorf("Get(%d) = %v, %v after reopen", i, v, ok)
		}
	}
	if n, err := u2.Size(); err != nil || n != 19 {
		t.Errorf("Size after reopen = %d, %v, want 19", n, err)
	}
}

// TestFailedCreateClosesOpenedParts corrupts a manifest-listed run of part 1
// and reopens: CreateTable must fail, and the part it had already opened must
// be closed again — out of the LSM gauges — with none of its files deleted.
func TestFailedCreateClosesOpenedParts(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, WithMemtableBudget(2*minMemtable))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := s.CreateTable("t", kvstore.WithParts(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tab.Put(i, fmt.Sprintf("value-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	runFiles := func(part int) []string {
		m, ok, err := readManifest(s.manifestPath("t", part))
		if err != nil || !ok || len(m.Runs) == 0 {
			t.Fatalf("part %d manifest: ok %v, %d runs, %v", part, ok, len(m.Runs), err)
		}
		var paths []string
		for _, r := range m.Runs {
			paths = append(paths, s.sstPath("t", part, r.Seq))
		}
		return paths
	}
	part0 := runFiles(0)
	if err := os.Truncate(runFiles(1)[0], 10); err != nil {
		t.Fatal(err)
	}

	col := &metrics.Collector{}
	s2, err := New(dir, WithMetrics(col), WithMemtableBudget(2*minMemtable))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	before := col.LSM().Snapshot()
	if _, err := s2.CreateTable("t", kvstore.WithParts(2)); err == nil {
		t.Fatal("CreateTable over a torn manifest-listed run succeeded")
	}
	after := col.LSM().Snapshot()
	if after.MemtableBytes != before.MemtableBytes {
		t.Errorf("memtable gauge %d after the failed open, %d before", after.MemtableBytes, before.MemtableBytes)
	}
	for level := 0; level < 8; level++ {
		if after.RunCounts[level] != before.RunCounts[level] {
			t.Errorf("level-%d run gauge %d after the failed open, %d before",
				level, after.RunCounts[level], before.RunCounts[level])
		}
	}
	for _, path := range append(part0, s.logPath("t", 0), s.manifestPath("t", 0)) {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("part 0 file lost by the failed open: %v", err)
		}
	}
}

// TestFlushSurvivesProcessKill simulates a SIGKILL: the first store is never
// closed (its buffered writers are simply abandoned), so only what Flush
// pushed out survives to the reopening store. This is the durability contract
// ripple-serve's job records and the engine's checkpoint commits rely on.
func TestFlushSurvivesProcessKill(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := s.CreateTable("t", kvstore.WithParts(2))
	for i := 0; i < 20; i++ {
		if err := tab.Put(i, i*3); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Post-flush writes stay in the abandoned buffer — the "kill" loses them,
	// and replay must shrug off any partial tail.
	for i := 20; i < 30; i++ {
		_ = tab.Put(i, i*3)
	}
	// No Close: abandon s as a killed process would.

	s2, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s2.Close() }()
	tab2, err := s2.CreateTable("t", kvstore.WithParts(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if v, ok, _ := tab2.Get(i); !ok || v != i*3 {
			t.Fatalf("flushed key %d = %v %v after kill", i, v, ok)
		}
	}
	// The generic helper reaches the same path through the SPI.
	if err := kvstore.Flush(s2); err != nil {
		t.Fatal(err)
	}
}
