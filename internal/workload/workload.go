// Package workload generates the synthetic inputs the paper's evaluation
// uses: directed power-law graphs for PageRank (§V-A, "a biased power-law
// distribution for edge attachments"), a time-varying undirected power-law
// graph with batched primitive changes for incremental SSSP (§V-C), and
// dense random matrices for SUMMA (§V-B). Everything is seeded and
// deterministic so experiments are reproducible.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
)

// DirectedGraph is an adjacency representation: Out[u] lists the vertices at
// the far end of u's outgoing edges (the paper's per-vertex int array).
type DirectedGraph struct {
	NumVertices int
	Out         [][]int32
}

// NumEdges counts the edges.
func (g *DirectedGraph) NumEdges() int {
	n := 0
	for _, out := range g.Out {
		n += len(out)
	}
	return n
}

// PowerLawDirected generates a directed graph with nVertices vertices and
// (approximately — exactly, unless the space is too dense) nEdges distinct
// edges whose endpoint choices follow a biased power-law (Zipf) distribution
// with exponent s > 1. Self-loops are allowed (PageRank handles them);
// duplicate (u,v) pairs are not.
func PowerLawDirected(rng *rand.Rand, nVertices, nEdges int, s float64) (*DirectedGraph, error) {
	if nVertices <= 0 {
		return nil, fmt.Errorf("workload: nVertices = %d", nVertices)
	}
	if s <= 1 {
		return nil, fmt.Errorf("workload: zipf exponent must exceed 1, got %v", s)
	}
	maxEdges := nVertices * nVertices
	if nEdges > maxEdges/2 {
		return nil, fmt.Errorf("workload: %d edges too dense for %d vertices", nEdges, nVertices)
	}
	zipf := rand.NewZipf(rng, s, 1, uint64(nVertices-1))
	// A fixed random relabeling decouples a vertex's ID from its
	// attachment popularity ("biased": popular endpoints are spread over
	// the ID space, not clustered at 0).
	perm := rng.Perm(nVertices)

	g := &DirectedGraph{
		NumVertices: nVertices,
		Out:         make([][]int32, nVertices),
	}
	seen := make(map[int64]struct{}, nEdges)
	for g0 := 0; g0 < nEdges; {
		u := perm[int(zipf.Uint64())]
		v := perm[int(zipf.Uint64())]
		key := int64(u)*int64(nVertices) + int64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		g.Out[u] = append(g.Out[u], int32(v))
		g0++
	}
	for _, out := range g.Out {
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	}
	return g, nil
}

// UndirectedGraph is an adjacency-set representation for the time-varying
// SSSP graph.
type UndirectedGraph struct {
	NumVertices int
	Adj         []map[int32]struct{}
}

// NewUndirected creates an empty undirected graph ("creation of unconnected
// vertices", §V-C).
func NewUndirected(nVertices int) *UndirectedGraph {
	g := &UndirectedGraph{
		NumVertices: nVertices,
		Adj:         make([]map[int32]struct{}, nVertices),
	}
	for i := range g.Adj {
		g.Adj[i] = make(map[int32]struct{})
	}
	return g
}

// NumEdges counts the undirected edges.
func (g *UndirectedGraph) NumEdges() int {
	n := 0
	for _, a := range g.Adj {
		n += len(a)
	}
	return n / 2
}

// HasEdge reports whether {u, v} is present.
func (g *UndirectedGraph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	_, ok := g.Adj[u][int32(v)]
	return ok
}

// AddEdge inserts {u, v}; it reports whether the edge was new.
func (g *UndirectedGraph) AddEdge(u, v int) bool {
	if u == v || g.HasEdge(u, v) {
		return false
	}
	g.Adj[u][int32(v)] = struct{}{}
	g.Adj[v][int32(u)] = struct{}{}
	return true
}

// RemoveEdge deletes {u, v}; it reports whether the edge existed.
func (g *UndirectedGraph) RemoveEdge(u, v int) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	delete(g.Adj[u], int32(v))
	delete(g.Adj[v], int32(u))
	return true
}

// Neighbors returns u's neighbors in ascending order.
func (g *UndirectedGraph) Neighbors(u int) []int32 {
	out := make([]int32, 0, len(g.Adj[u]))
	for v := range g.Adj[u] {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PowerLawUndirected populates g with nEdges random edges whose endpoints
// follow a power-law distribution (the §V-C initial graph: 100,000 vertices,
// about 1.8 million random edges).
func PowerLawUndirected(rng *rand.Rand, nVertices, nEdges int, s float64) (*UndirectedGraph, error) {
	if nVertices <= 1 {
		return nil, fmt.Errorf("workload: nVertices = %d", nVertices)
	}
	if s <= 1 {
		return nil, fmt.Errorf("workload: zipf exponent must exceed 1, got %v", s)
	}
	g := NewUndirected(nVertices)
	zipf := rand.NewZipf(rng, s, 1, uint64(nVertices-1))
	perm := rng.Perm(nVertices)
	attempts, edges := 0, 0
	maxAttempts := nEdges * 50
	for edges < nEdges {
		if attempts++; attempts > maxAttempts {
			return nil, fmt.Errorf("workload: could not place %d edges (graph too dense)", nEdges)
		}
		u := perm[int(zipf.Uint64())]
		v := perm[int(zipf.Uint64())]
		if g.AddEdge(u, v) {
			edges++
		}
	}
	return g, nil
}

// ChangeKind is the kind of a primitive graph change (§V-C): gaining or
// losing an isolated vertex, gaining or losing an edge.
type ChangeKind int

// The primitive change kinds.
const (
	AddEdge ChangeKind = iota + 1
	RemoveEdge
)

// Change is one primitive change to the time-varying graph.
type Change struct {
	Kind ChangeKind
	U, V int
}

// ChangeBatch generates a batch of n random edge additions and removals
// "without regard to which already exist, so some of these changes will be
// no-ops" (§V-C). Endpoints follow the same power law as the initial graph.
func ChangeBatch(rng *rand.Rand, nVertices, n int, s float64, removeFrac float64) []Change {
	zipf := rand.NewZipf(rng, s, 1, uint64(nVertices-1))
	out := make([]Change, 0, n)
	for i := 0; i < n; i++ {
		c := Change{
			U: int(zipf.Uint64()),
			V: int(zipf.Uint64()),
		}
		if rng.Float64() < removeFrac {
			c.Kind = RemoveEdge
		} else {
			c.Kind = AddEdge
		}
		out = append(out, c)
	}
	return out
}

// Apply applies a change to the graph; it reports whether the graph actually
// changed (no-ops are expected, per the paper).
func (g *UndirectedGraph) Apply(c Change) bool {
	if c.U == c.V || c.U < 0 || c.V < 0 || c.U >= g.NumVertices || c.V >= g.NumVertices {
		return false
	}
	switch c.Kind {
	case AddEdge:
		return g.AddEdge(c.U, c.V)
	case RemoveEdge:
		return g.RemoveEdge(c.U, c.V)
	default:
		return false
	}
}
