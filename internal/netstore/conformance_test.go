package netstore

import (
	"testing"

	"ripple/internal/kvstore"
	"ripple/internal/kvstore/kvstoretest"
)

func TestConformance(t *testing.T) {
	kvstoretest.Run(t, func(t *testing.T) kvstore.Store {
		addrs, _, stop := fleet(t, 3)
		t.Cleanup(stop)
		return dialFleet(t, addrs, WithReplicas(2), WithDefaultParts(3))
	}, kvstoretest.Profile{
		Name:         "netstore",
		DefaultParts: 3,
		Caps:         kvstoretest.Caps{Healer: true, FailureSensor: true, TraceBinder: true},
	})
}
