package chaos

import (
	"testing"

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
