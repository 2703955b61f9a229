// Package sssp implements the paper's incremental single-source-shortest-
// paths evaluation (§V-C): maintaining, on a time-varying undirected graph,
// each vertex's hop distance from a distinguished source, updating the
// annotations after each small batch of primitive changes.
//
// Two variants are implemented. The selective-enablement variant exploits
// EBSP: each vertex caches the distance last received from each neighbor, so
// after a change batch only the affected vertices (and the ripple they cause)
// ever run. The full-scan variant is the MapReduce-style computation: each
// update wave is a series of two-step MapReduce-like jobs, every one of which
// scans the whole graph.
//
// If a batch includes no edge deletions the solution is updated by one wave
// of breadth-first updates; otherwise it is two waves — the first updates to
// +∞ every distance annotation that depended critically on a now-removed
// edge, the second decreases annotations that are higher than justified by
// their neighbors' values.
package sssp

import (
	"errors"
	"fmt"
	"math"

	"ripple/internal/codec"
	"ripple/internal/kvstore"
	"ripple/internal/tableops"
	"ripple/internal/workload"
)

// Inf is the "unreachable" distance annotation (+∞ in the paper).
const Inf int32 = math.MaxInt32 / 2

// ErrBadConfig is returned for invalid driver configurations.
var ErrBadConfig = errors.New("sssp: invalid config")

// waves of the update method.
const (
	waveInvalidate = 1 // raise unsupported annotations to +∞
	waveDecrease   = 2 // lower annotations justified by neighbors
)

// BatchStats reports the work one change batch caused.
type BatchStats struct {
	// Applied counts changes that actually modified the graph; the rest of
	// the batch were no-ops (expected, per the paper's generator).
	Applied int
	// HardCase reports whether the batch included an actual edge deletion
	// (requiring the two-wave update).
	HardCase bool
	// Steps is the total BSP steps across the update jobs.
	Steps int
	// Jobs is the number of EBSP jobs launched.
	Jobs int
	// Invalidated counts annotations raised to +∞ by the first wave.
	Invalidated int
}

func init() {
	codec.Register(SelState{})
	codec.Register(FsState{})
	codec.Register(distMsg{})
	codec.Register(fsMsg{})
	codec.Register(int32(0))

	// Fast wire codecs: these four types are the entirety of the SSSP data
	// plane, and distMsg in particular is sent once per affected edge per
	// wave, so keeping them off the gob fallback matters.
	codec.RegisterFast(SelState{}, codec.FastCodec{
		Encode: func(e *codec.Encoder, v any) error {
			s := v.(SelState)
			if err := e.Any(s.Nbrs); err != nil {
				return err
			}
			if err := e.Any(s.NbrDist); err != nil {
				return err
			}
			e.Int(int(s.Dist))
			return nil
		},
		Decode: func(d *codec.Decoder) (any, error) {
			var s SelState
			var err error
			if s.Nbrs, err = decI32s(d); err != nil {
				return nil, err
			}
			if s.NbrDist, err = decI32s(d); err != nil {
				return nil, err
			}
			dist, err := d.Int()
			if err != nil {
				return nil, err
			}
			s.Dist = int32(dist)
			return s, nil
		},
		Copy: func(v any) (any, error) {
			s := v.(SelState)
			return SelState{
				Nbrs:    append([]int32(nil), s.Nbrs...),
				NbrDist: append([]int32(nil), s.NbrDist...),
				Dist:    s.Dist,
			}, nil
		},
	})
	codec.RegisterFast(FsState{}, codec.FastCodec{
		Encode: func(e *codec.Encoder, v any) error {
			s := v.(FsState)
			e.Int(int(s.Dist))
			return e.Any(s.Nbrs)
		},
		Decode: func(d *codec.Decoder) (any, error) {
			var s FsState
			dist, err := d.Int()
			if err != nil {
				return nil, err
			}
			s.Dist = int32(dist)
			if s.Nbrs, err = decI32s(d); err != nil {
				return nil, err
			}
			return s, nil
		},
		Copy: func(v any) (any, error) {
			s := v.(FsState)
			return FsState{Dist: s.Dist, Nbrs: append([]int32(nil), s.Nbrs...)}, nil
		},
	})
	codec.RegisterFast(distMsg{}, codec.FastCodec{
		Encode: func(e *codec.Encoder, v any) error {
			m := v.(distMsg)
			e.Int(int(m.From))
			e.Int(int(m.Dist))
			return nil
		},
		Decode: func(d *codec.Decoder) (any, error) {
			from, err := d.Int()
			if err != nil {
				return nil, err
			}
			dist, err := d.Int()
			if err != nil {
				return nil, err
			}
			return distMsg{From: int32(from), Dist: int32(dist)}, nil
		},
		Copy: func(v any) (any, error) { return v, nil },
	})
	codec.RegisterFast(fsMsg{}, codec.FastCodec{
		Encode: func(e *codec.Encoder, v any) error {
			m := v.(fsMsg)
			has := byte(0)
			if m.HasState {
				has = 1
			}
			e.Byte(has)
			e.Int(int(m.State.Dist))
			if err := e.Any(m.State.Nbrs); err != nil {
				return err
			}
			e.Int(int(m.MinNbr))
			return nil
		},
		Decode: func(d *codec.Decoder) (any, error) {
			var m fsMsg
			has, err := d.Byte()
			if err != nil {
				return nil, err
			}
			m.HasState = has != 0
			dist, err := d.Int()
			if err != nil {
				return nil, err
			}
			m.State.Dist = int32(dist)
			if m.State.Nbrs, err = decI32s(d); err != nil {
				return nil, err
			}
			minNbr, err := d.Int()
			if err != nil {
				return nil, err
			}
			m.MinNbr = int32(minNbr)
			return m, nil
		},
		Copy: func(v any) (any, error) {
			m := v.(fsMsg)
			m.State.Nbrs = append([]int32(nil), m.State.Nbrs...)
			return m, nil
		},
	})
}

// decI32s reads a tagged []int32 written by Encoder.Any.
func decI32s(d *codec.Decoder) ([]int32, error) {
	v, err := d.Any()
	if err != nil {
		return nil, err
	}
	s, ok := v.([]int32)
	if !ok && v != nil {
		return nil, fmt.Errorf("sssp: expected []int32 on the wire, got %T", v)
	}
	return s, nil
}

// ReferenceDistances computes hop distances by breadth-first search, for
// verification.
func ReferenceDistances(g *workload.UndirectedGraph, src int) []int32 {
	dist := make([]int32, g.NumVertices)
	for i := range dist {
		dist[i] = Inf
	}
	if src < 0 || src >= g.NumVertices {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := range g.Adj[u] {
			if dist[v] > dist[u]+1 {
				dist[v] = dist[u] + 1
				queue = append(queue, int(v))
			}
		}
	}
	return dist
}

// minNeighbor returns the smallest cached neighbor distance.
func minNeighbor(cache []int32) int32 {
	best := Inf
	for _, d := range cache {
		if d < best {
			best = d
		}
	}
	return best
}

// supported reports whether distance d is justified by some cached neighbor
// at distance d-1.
func supported(cache []int32, d int32) bool {
	if d == 0 || d >= Inf {
		return true // the source, or already unreachable
	}
	for _, nd := range cache {
		if nd == d-1 {
			return true
		}
	}
	return false
}

// edgeLists is a vertex state whose neighbour list a change batch edits.
// cloned copies the state's slices; linked and unlinked edit them in place,
// so they are called only on a copy the batch owns, never on a stored value.
type edgeLists[S any] interface {
	nbrs() []int32
	cloned() S
	linked(to int32, other S) S // plus an edge to vertex to, whose state is other
	unlinked(i int) S           // less the edge at index i, order kept
}

// editGraph applies batch's structural edits to table — add if absent,
// remove if present, skip when an endpoint has no state — and returns the
// changes that modified the graph, in batch order. One agent per touched
// part reads each touched state once; the batch is replayed on those states,
// each cloned once on its first change and edited in place from then on;
// one agent per part holding a changed state writes it once. No state
// crosses the store boundary, and a batch whose writes fail part-way is
// partly applied.
func editGraph[S edgeLists[S]](store kvstore.Store, table string, batch []workload.Change) (*BatchStats, []workload.Change, error) {
	tab, ok := store.LookupTable(table)
	if !ok {
		return nil, nil, fmt.Errorf("sssp: table %q missing", table)
	}
	valid := func(c workload.Change) bool { return c.U != c.V && c.U >= 0 && c.V >= 0 }
	touched := map[int][]any{} // part -> keys, in first-touch order
	seen := map[int]bool{}
	for _, c := range batch {
		if !valid(c) {
			continue
		}
		for _, k := range [2]int{c.U, c.V} {
			if !seen[k] {
				seen[k] = true
				p := tab.PartOf(k)
				touched[p] = append(touched[p], k)
			}
		}
	}
	states := make(map[int]S, len(seen))
	err := tableops.InParts(store, table, table, touched, func(pv kvstore.PartView, _ int, keys []any) error {
		for _, k := range keys {
			v, ok, err := pv.Get(k)
			if err != nil {
				return err
			}
			if ok {
				states[k.(int)] = v.(S)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	stats := &BatchStats{}
	var applied []workload.Change
	changed := map[int]bool{} // the states the batch has cloned, and so owns
	own := func(k int) S {
		if !changed[k] {
			states[k], changed[k] = states[k].cloned(), true
		}
		return states[k]
	}
	for _, c := range batch {
		su, okU := states[c.U]
		sv, okV := states[c.V]
		if !valid(c) || !okU || !okV {
			continue
		}
		iu := indexOf(su.nbrs(), int32(c.V))
		switch {
		case c.Kind == workload.AddEdge && iu < 0:
			states[c.U], states[c.V] = own(c.U).linked(int32(c.V), sv), own(c.V).linked(int32(c.U), su)
		case c.Kind == workload.RemoveEdge && iu >= 0:
			states[c.U] = own(c.U).unlinked(iu)
			if iv := indexOf(sv.nbrs(), int32(c.U)); iv >= 0 {
				states[c.V] = own(c.V).unlinked(iv)
			}
			stats.HardCase = true
		default:
			continue
		}
		applied = append(applied, c)
	}
	stats.Applied = len(applied)

	dirty := map[int][]any{}
	for p, keys := range touched {
		for _, k := range keys {
			if changed[k.(int)] {
				dirty[p] = append(dirty[p], k)
			}
		}
	}
	err = tableops.InParts(store, table, table, dirty, func(pv kvstore.PartView, _ int, keys []any) error {
		for _, k := range keys {
			if err := pv.Put(k, states[k.(int)]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return stats, applied, nil
}

func checkSource(src, n int) error {
	if src < 0 || (n > 0 && src >= n) {
		return fmt.Errorf("%w: source %d of %d vertices", ErrBadConfig, src, n)
	}
	return nil
}
