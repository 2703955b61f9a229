package chaos

import (
	"testing"

	"ripple/internal/diskstore"
	"ripple/internal/gridstore"
	"ripple/internal/kvstore"
	"ripple/internal/kvstore/kvstoretest"
	"ripple/internal/memstore"
)

// With nothing scheduled the decorator is transparent, and it must not lend a
// plain store capabilities it does not have.
func TestConformanceWrappedMemstore(t *testing.T) {
	kvstoretest.Run(t, func(t *testing.T) kvstore.Store {
		s := Wrap(memstore.New(memstore.WithParts(3)), NewInjector(Schedule{}))
		t.Cleanup(func() { _ = s.Close() })
		return s
	}, kvstoretest.Profile{
		Name:         "memstore+chaos",
		DefaultParts: 3,
	})
}

// The decorator mirrors its inner store's capability set exactly: a wrapped
// diskstore still flushes (checkpoint commit points fsync under chaos), and
// a wrapped gridstore claims no trace binding it does not have.
func TestConformanceWrappedDiskstore(t *testing.T) {
	newInner := func(t *testing.T) kvstore.Store {
		s, err := diskstore.New(t.TempDir(), diskstore.WithParts(3))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	}
	kvstoretest.Run(t, func(t *testing.T) kvstore.Store {
		return Wrap(newInner(t), NewInjector(Schedule{}))
	}, kvstoretest.Profile{
		Name:         "diskstore+chaos",
		DefaultParts: 3,
		Caps:         kvstoretest.CapsOf(newInner(t)),
	})
}

func TestConformanceWrappedGridstore(t *testing.T) {
	newInner := func(t *testing.T) kvstore.Store {
		s := gridstore.New(gridstore.WithParts(5), gridstore.WithReplicas(2))
		t.Cleanup(func() { _ = s.Close() })
		return s
	}
	kvstoretest.Run(t, func(t *testing.T) kvstore.Store {
		return Wrap(newInner(t), NewInjector(Schedule{}))
	}, kvstoretest.Profile{
		Name:         "gridstore+chaos",
		DefaultParts: 5,
		Caps:         kvstoretest.CapsOf(newInner(t)),
	})
}
