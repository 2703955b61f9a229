package gridstore

import (
	"testing"
	"time"

	"ripple/internal/kvstore"
	"ripple/internal/kvstore/kvstoretest"
)

var gridProfile = kvstoretest.Profile{
	Name:         "gridstore",
	DefaultParts: 5,
	Caps: kvstoretest.Caps{
		Transactional: true,
		Replicated:    true,
		Healer:        true,
		FailureSensor: true,
	},
}

func TestConformance(t *testing.T) {
	kvstoretest.Run(t, func(t *testing.T) kvstore.Store {
		return newStore(t, WithParts(5), WithLatency(time.Microsecond))
	}, gridProfile)
}

func TestConformanceReplicated(t *testing.T) {
	kvstoretest.Run(t, func(t *testing.T) kvstore.Store {
		return newStore(t, WithParts(5), WithReplicas(2))
	}, gridProfile)
}

// txStore dispatches every agent as a transaction, so the suite's agent
// cases run against the write-set views.
type txStore struct{ *Store }

func (s txStore) RunAgent(table string, part int, agent kvstore.Agent) (any, error) {
	return s.RunTransaction(table, part, agent)
}

func TestConformanceTransactionViews(t *testing.T) {
	kvstoretest.Run(t, func(t *testing.T) kvstore.Store {
		return txStore{newStore(t, WithParts(5), WithReplicas(2))}
	}, gridProfile)
}
