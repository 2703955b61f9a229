package diskstore

import (
	"testing"

	"ripple/internal/kvstore"
	"ripple/internal/kvstore/kvstoretest"
)

func TestConformance(t *testing.T) {
	kvstoretest.Run(t, func(t *testing.T) kvstore.Store {
		s, err := New(t.TempDir(), WithParts(3))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	}, kvstoretest.Profile{
		Name:         "diskstore",
		DefaultParts: 3,
		Caps:         kvstoretest.Caps{Flusher: true},
	})
}
