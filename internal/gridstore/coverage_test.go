package gridstore

import (
	"testing"

	"ripple/internal/kvstore"
	"ripple/internal/metrics"
)

func TestReplicasAndMetricsOptions(t *testing.T) {
	m := &metrics.Collector{}
	s := newStore(t, WithMetrics(m), WithReplicas(3))
	if s.Replicas() != 3 {
		t.Errorf("Replicas = %d", s.Replicas())
	}
	tab, _ := s.CreateTable("t")
	_ = tab.Put(1, "x")
	if m.Snapshot().StorePuts != 1 {
		t.Error("metrics not wired")
	}
	if m.Snapshot().MarshalledBytes == 0 {
		t.Error("marshalling not counted")
	}
}

func TestWithoutMarshallingGrid(t *testing.T) {
	m := &metrics.Collector{}
	s := newStore(t, WithoutMarshalling(), WithMetrics(m))
	tab, _ := s.CreateTable("t")
	_ = tab.Put(1, []int{1, 2})
	if m.Snapshot().MarshalledBytes != 0 {
		t.Error("marshalled despite WithoutMarshalling")
	}
}

func TestDeleteReplicatedGrid(t *testing.T) {
	s := newStore(t, WithReplicas(2), WithParts(1))
	tab, _ := s.CreateTable("t")
	_ = tab.Put("k", 1)
	_ = tab.Delete("k")
	if err := s.FailPrimary("t", 0); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tab.Get("k"); ok {
		t.Error("delete not replicated: key resurrected after failover")
	}
}

func TestFailPrimaryOnUbiquitousRejected(t *testing.T) {
	s := newStore(t)
	_, _ = s.CreateTable("u", kvstore.Ubiquitous())
	if err := s.FailPrimary("u", 0); err == nil {
		t.Error("FailPrimary on ubiquitous table allowed")
	}
}
