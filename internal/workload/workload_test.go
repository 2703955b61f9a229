package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

func TestPowerLawDirectedShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := PowerLawDirected(rng, 1000, 20000, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 1000 {
		t.Errorf("NumVertices = %d", g.NumVertices)
	}
	if g.NumEdges() != 20000 {
		t.Errorf("NumEdges = %d, want 20000", g.NumEdges())
	}
	// No duplicate edges per source.
	for u, out := range g.Out {
		for i := 1; i < len(out); i++ {
			if out[i] == out[i-1] {
				t.Fatalf("duplicate edge %d -> %d", u, out[i])
			}
		}
	}
}

func TestPowerLawDirectedDeterministic(t *testing.T) {
	g1, _ := PowerLawDirected(rand.New(rand.NewSource(7)), 500, 5000, 1.4)
	g2, _ := PowerLawDirected(rand.New(rand.NewSource(7)), 500, 5000, 1.4)
	for u := range g1.Out {
		if len(g1.Out[u]) != len(g2.Out[u]) {
			t.Fatalf("vertex %d degree differs", u)
		}
		for i := range g1.Out[u] {
			if g1.Out[u][i] != g2.Out[u][i] {
				t.Fatalf("vertex %d edge %d differs", u, i)
			}
		}
	}
}

func TestPowerLawDirectedIsSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := PowerLawDirected(rng, 2000, 40000, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	// In-degree distribution should be heavily skewed: the top 1% of
	// vertices should absorb far more than 1% of edges.
	indeg := make([]int, g.NumVertices)
	for _, out := range g.Out {
		for _, v := range out {
			indeg[v]++
		}
	}
	sortDesc(indeg)
	top := 0
	for _, d := range indeg[:g.NumVertices/100] {
		top += d
	}
	if frac := float64(top) / float64(g.NumEdges()); frac < 0.05 {
		t.Errorf("top-1%% in-degree share = %.3f, want skew >= 0.05", frac)
	}
}

func sortDesc(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] > xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestPowerLawDirectedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := PowerLawDirected(rng, 0, 10, 1.5); err == nil {
		t.Error("zero vertices accepted")
	}
	if _, err := PowerLawDirected(rng, 10, 10, 1.0); err == nil {
		t.Error("exponent 1.0 accepted")
	}
	if _, err := PowerLawDirected(rng, 10, 90, 1.5); err == nil {
		t.Error("over-dense graph accepted")
	}
}

func TestUndirectedBasics(t *testing.T) {
	g := NewUndirected(10)
	if g.NumEdges() != 0 {
		t.Errorf("fresh graph has %d edges", g.NumEdges())
	}
	if !g.AddEdge(1, 2) {
		t.Error("AddEdge(1,2) not new")
	}
	if g.AddEdge(2, 1) {
		t.Error("AddEdge(2,1) reported new (undirected dup)")
	}
	if g.AddEdge(3, 3) {
		t.Error("self-loop accepted")
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Error("edge not symmetric")
	}
	if !g.RemoveEdge(1, 2) {
		t.Error("RemoveEdge failed")
	}
	if g.RemoveEdge(1, 2) {
		t.Error("double remove reported true")
	}
	if g.HasEdge(1, 2) {
		t.Error("edge survived removal")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := NewUndirected(10)
	for _, v := range []int{7, 2, 9, 4} {
		g.AddEdge(0, v)
	}
	nbrs := g.Neighbors(0)
	want := []int32{2, 4, 7, 9}
	if len(nbrs) != len(want) {
		t.Fatalf("Neighbors = %v", nbrs)
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Errorf("Neighbors = %v, want %v", nbrs, want)
			break
		}
	}
}

func TestPowerLawUndirected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, err := PowerLawUndirected(rng, 1000, 9000, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 9000 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	// Symmetry invariant.
	for u := 0; u < g.NumVertices; u++ {
		for v := range g.Adj[u] {
			if _, ok := g.Adj[v][int32(u)]; !ok {
				t.Fatalf("asymmetric edge %d-%d", u, v)
			}
		}
	}
}

func TestChangeBatchAndApply(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := PowerLawUndirected(rng, 300, 2000, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	batch := ChangeBatch(rng, 300, 1000, 1.3, 0.5)
	if len(batch) != 1000 {
		t.Fatalf("batch size = %d", len(batch))
	}
	adds, removes := 0, 0
	for _, c := range batch {
		switch c.Kind {
		case AddEdge:
			adds++
		case RemoveEdge:
			removes++
		default:
			t.Fatalf("bad kind %v", c.Kind)
		}
	}
	if adds == 0 || removes == 0 {
		t.Errorf("adds=%d removes=%d, want a mix", adds, removes)
	}
	applied, noops := 0, 0
	for _, c := range batch {
		if g.Apply(c) {
			applied++
		} else {
			noops++
		}
	}
	// The paper notes some changes will be no-ops; both outcomes occur.
	if applied == 0 || noops == 0 {
		t.Errorf("applied=%d noops=%d, want both nonzero", applied, noops)
	}
	// Symmetry preserved after churn.
	for u := 0; u < g.NumVertices; u++ {
		for v := range g.Adj[u] {
			if _, ok := g.Adj[v][int32(u)]; !ok {
				t.Fatalf("asymmetric edge %d-%d after changes", u, v)
			}
		}
	}
}

func TestApplyRejectsOutOfRange(t *testing.T) {
	g := NewUndirected(5)
	if g.Apply(Change{Kind: AddEdge, U: -1, V: 2}) {
		t.Error("negative vertex accepted")
	}
	if g.Apply(Change{Kind: AddEdge, U: 1, V: 7}) {
		t.Error("out-of-range vertex accepted")
	}
	if g.Apply(Change{Kind: AddEdge, U: 2, V: 2}) {
		t.Error("self-loop accepted")
	}
}

// TestPowerLawUndirectedGolden pins the generator's output: a SHA-256 over
// every vertex's sorted neighbour list, at the zipf exponent the SSSP
// workloads use. Any change to how edges are drawn or accepted moves it.
func TestPowerLawUndirectedGolden(t *testing.T) {
	for _, tc := range []struct {
		vertices, edges int
		seed            int64
		want            string
	}{
		{400, 3000, 1, "68df8a8976b04be5a887e1839b5eb7885b5250776c59b97286ddb0877ec09db7"},
		{1500, 40000, 2, "8dd9269cb3e79e588acbeccdc77d8f540e672a7c0b61498cdcccd8357d5f8378"},
	} {
		g, err := PowerLawUndirected(rand.New(rand.NewSource(tc.seed)), tc.vertices, tc.edges, 1.3)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [4]byte
		for u := 0; u < g.NumVertices; u++ {
			nbrs := g.Neighbors(u)
			binary.BigEndian.PutUint32(buf[:], uint32(len(nbrs)))
			h.Write(buf[:])
			for _, v := range nbrs {
				binary.BigEndian.PutUint32(buf[:], uint32(v))
				h.Write(buf[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("(%d v, %d e, seed %d): digest %s, want %s", tc.vertices, tc.edges, tc.seed, got, tc.want)
		}
	}
}
