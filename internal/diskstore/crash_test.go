package diskstore

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"ripple/internal/kvstore"
)

// TestCrashRecoveryProperty kills the store at seeded pseudorandom points —
// mid-put (torn, unsynced WAL tail), mid-memtable-flush, and mid-compaction
// (via the crash hook that fails every durability stage from the crash
// instant on) — and checks the recovery invariants on reopen: the store
// opens without error (no torn SSTable is ever loaded, crash orphans are
// swept), every acknowledged durable write is present at its acknowledged
// value (modulo the one in-flight write the crash interrupted), and a
// garbage WAL tail is clipped, not fatal.
func TestCrashRecoveryProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			s, err := New(dir, WithMemtableBudget(minMemtable), WithSyncEvery(1))
			if err != nil {
				t.Fatal(err)
			}
			// Sticky crash: from the Nth durability stage on, every flush and
			// compaction step fails, as if the process died at that instant.
			crashAt := int32(1 + rng.Intn(25))
			var stage atomic.Int32
			s.crashHook = func(st, _ string, _ int) error {
				if stage.Add(1) >= crashAt {
					return fmt.Errorf("simulated crash at %s", st)
				}
				return nil
			}
			tab, err := s.CreateTable("t", kvstore.WithParts(2))
			if err != nil {
				t.Fatal(err)
			}

			acked := make(map[int]string) // latest acknowledged value
			deleted := make(map[int]bool) // acknowledged tombstones
			crashKey, crashVal := -1, ""  // the one in-flight (unacked) write
			crashDelete := false
			for i := 0; i < 400; i++ {
				op, key := rng.Intn(10), rng.Intn(120)
				switch {
				case op < 8:
					crashKey, crashVal, crashDelete = key, fmt.Sprintf("v%d-%d", key, i), false
					if err := tab.Put(key, crashVal); err != nil {
						goto crashed
					}
					acked[key] = crashVal
					delete(deleted, key)
				case op == 8:
					crashKey, crashDelete = key, true
					if err := tab.Delete(key); err != nil {
						goto crashed
					}
					delete(acked, key)
					deleted[key] = true
				default:
					if err := s.Compact("t"); err != nil {
						crashKey = -1 // no in-flight write
						goto crashed
					}
				}
				crashKey = -1
			}
		crashed:
			// Abandon the store as a kill would: stop the background loops but
			// flush nothing — buffered WAL bytes are lost, the memtable dies.
			s.compactor.stop()
			s.syncer.stop()

			// Half the seeds also tear the WAL tail with garbage bytes, the
			// on-disk shape of a write cut off by the power failing.
			if rng.Intn(2) == 0 {
				f, err := openAppend(s.logPath("t", rng.Intn(2)))
				if err != nil {
					t.Fatal(err)
				}
				garbage := make([]byte, 1+rng.Intn(40))
				for i := range garbage {
					garbage[i] = 0xFF
				}
				if _, err := f.Write(garbage); err != nil {
					t.Fatal(err)
				}
				_ = f.Close()
			}

			s2, err := New(dir, WithMemtableBudget(minMemtable))
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := s2.Close(); err != nil {
					t.Errorf("clean close after recovery: %v", err)
				}
			}()
			tab2, err := s2.CreateTable("t", kvstore.WithParts(2))
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			for key, want := range acked {
				got, ok, err := tab2.Get(key)
				if err != nil {
					t.Fatalf("Get(%d): %v", key, err)
				}
				if !ok {
					t.Errorf("acked key %d lost", key)
					continue
				}
				// The interrupted write was never acknowledged; it may or may
				// not have reached the WAL, so either value is legal for its
				// key — but nothing else is.
				if got != want && !(key == crashKey && !crashDelete && got == crashVal) {
					t.Errorf("key %d = %q, want %q", key, got, want)
				}
			}
			for key := range deleted {
				got, ok, err := tab2.Get(key)
				if err != nil {
					t.Fatalf("Get(%d): %v", key, err)
				}
				if ok && !(key == crashKey && !crashDelete && got == crashVal) {
					t.Errorf("acked-deleted key %d resurrected as %q", key, got)
				}
			}
		})
	}
}
