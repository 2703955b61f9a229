package memstore

import (
	"testing"
	"time"

	"ripple/internal/kvstore"
	"ripple/internal/kvstore/kvstoretest"
)

func TestConformance(t *testing.T) {
	kvstoretest.Run(t, func(t *testing.T) kvstore.Store {
		// The latency option must not change behaviour.
		return newStore(t, WithParts(3), WithLatency(time.Microsecond))
	}, kvstoretest.Profile{
		Name:         "memstore",
		DefaultParts: 3,
	})
}
