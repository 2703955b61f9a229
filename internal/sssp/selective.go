package sssp

import (
	"fmt"
	"slices"
	"sort"

	"ripple/internal/ebsp"
	"ripple/internal/kvstore"
	"ripple/internal/tableops"
	"ripple/internal/workload"
)

// SelState is the selective variant's per-vertex state: two int arrays of
// the same length — one holds the ID of each neighbor, the other the
// distance value most recently received from that neighbor — plus the
// vertex's own annotation. The cache is what makes incrementality possible:
// a vertex need not hear from every neighbor in each iteration.
type SelState struct {
	Nbrs    []int32
	NbrDist []int32
	Dist    int32
}

// distMsg is the selective variant's message: the sender's ID as well as its
// current distance value. The job has no combiner.
type distMsg struct {
	From int32
	Dist int32
}

// Selective maintains distances with the selective-enablement variant.
type Selective struct {
	engine *ebsp.Engine
	table  string
	source int
	parts  int
}

// NewSelective creates a driver; Init must be called before ApplyBatch.
func NewSelective(engine *ebsp.Engine, table string, source, parts int) *Selective {
	return &Selective{engine: engine, table: table, source: source, parts: parts}
}

// Init loads the graph's structure into the state table (all annotations
// +∞, caches empty) and computes the initial distance values with one
// breadth-first wave from the source.
func (s *Selective) Init(g *workload.UndirectedGraph) error {
	if err := checkSource(s.source, g.NumVertices); err != nil {
		return err
	}
	_, err := tableops.Load(s.engine.Store(), s.table, s.parts, g.NumVertices, func(u int) any {
		nbrs := g.Neighbors(u)
		cache := make([]int32, len(nbrs))
		for i := range cache {
			cache[i] = Inf
		}
		return SelState{Nbrs: nbrs, NbrDist: cache, Dist: Inf}
	})
	if err != nil {
		return err
	}
	_, err = s.runWave(waveDecrease, []any{s.source}, nil)
	return err
}

// Distances reads all current annotations.
func (s *Selective) Distances() (map[int]int32, error) {
	tab, ok := s.engine.Store().LookupTable(s.table)
	if !ok {
		return nil, fmt.Errorf("sssp: table %q missing", s.table)
	}
	pairs, err := kvstore.Dump(tab)
	if err != nil {
		return nil, err
	}
	out := make(map[int]int32, len(pairs))
	for k, v := range pairs {
		out[k.(int)] = v.(SelState).Dist
	}
	return out, nil
}

// ApplyBatch applies one batch of primitive changes to the stored graph and
// updates the distance annotations (one wave, or two when the batch deletes
// edges).
func (s *Selective) ApplyBatch(batch []workload.Change) (*BatchStats, error) {
	stats, applied, err := editGraph[SelState](s.engine.Store(), s.table, batch)
	if err != nil {
		return nil, err
	}
	wave1Seeds := map[int]bool{}
	wave2Seeds := map[int]bool{}
	for _, c := range applied {
		seeds := wave2Seeds
		if c.Kind == workload.RemoveEdge {
			seeds = wave1Seeds
		}
		seeds[c.U], seeds[c.V] = true, true
	}

	if stats.HardCase {
		invalidated := &ebsp.CollectExporter{}
		res, err := s.runWave(waveInvalidate, keysOf(wave1Seeds), invalidated)
		if err != nil {
			return nil, err
		}
		stats.Steps += res.Steps
		stats.Jobs++
		stats.Invalidated = invalidated.Len()
		for k := range invalidated.Pairs() {
			wave2Seeds[k.(int)] = true
		}
	}
	if len(wave2Seeds) > 0 {
		res, err := s.runWave(waveDecrease, keysOf(wave2Seeds), nil)
		if err != nil {
			return nil, err
		}
		stats.Steps += res.Steps
		stats.Jobs++
	}
	return stats, nil
}

func keysOf(set map[int]bool) []any {
	ks := make([]int, 0, len(set))
	for k := range set {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	out := make([]any, len(ks))
	for i, k := range ks {
		out[i] = k
	}
	return out
}

func indexOf(xs []int32, x int32) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func (s SelState) cloned() SelState {
	return SelState{Nbrs: slices.Clone(s.Nbrs), NbrDist: slices.Clone(s.NbrDist), Dist: s.Dist}
}

// linked is s plus an edge to vertex to, whose cache entry is other's
// annotation. Like unlinked it edits s's slices: s is a batch-owned clone.
func (s SelState) linked(to int32, other SelState) SelState {
	s.Nbrs, s.NbrDist = append(s.Nbrs, to), append(s.NbrDist, other.Dist)
	return s
}

func (s SelState) unlinked(i int) SelState {
	s.Nbrs, s.NbrDist = slices.Delete(s.Nbrs, i, i+1), slices.Delete(s.NbrDist, i, i+1)
	return s
}

func (s SelState) nbrs() []int32 { return s.Nbrs }

// runWave runs one selective update wave as one EBSP job: only the seed
// vertices — and whatever their updates ripple into — are ever invoked.
func (s *Selective) runWave(wave int, seeds []any, invalidated *ebsp.CollectExporter) (*ebsp.Result, error) {
	job := &ebsp.Job{
		Name:        fmt.Sprintf("sssp.selective.%s.w%d", s.table, wave),
		StateTables: []string{s.table},
		Compute:     &selCompute{wave: wave, source: int32(s.source)},
		Loaders:     []ebsp.Loader{&ebsp.EnableLoader{Keys: seeds}},
	}
	if invalidated != nil {
		job.DirectOutput = invalidated
	}
	return s.engine.Run(job)
}

// selCompute is the selective variant's component function: apply incoming
// (sender, distance) messages to the neighbor-distance array, recompute the
// annotation, and propagate only if it changed.
type selCompute struct {
	wave   int
	source int32
}

func (sc *selCompute) Compute(ctx *ebsp.Context) bool {
	raw, ok := ctx.ReadState(0)
	if !ok {
		return false
	}
	st := raw.(SelState)
	stateChanged := false
	for _, m := range ctx.InputMessages() {
		dm := m.(distMsg)
		if i := indexOf(st.Nbrs, dm.From); i >= 0 && st.NbrDist[i] != dm.Dist {
			st.NbrDist[i] = dm.Dist
			stateChanged = true
		}
	}

	vid := int32(ctx.Key().(int))
	newDist := st.Dist
	switch sc.wave {
	case waveInvalidate:
		// Raise to +∞ when no remaining neighbor supports the annotation.
		if vid != sc.source && !supported(st.NbrDist, st.Dist) {
			newDist = Inf
		}
	case waveDecrease:
		if vid == sc.source {
			newDist = 0
		} else if m := minNeighbor(st.NbrDist); m < Inf && m+1 < newDist {
			newDist = m + 1
		}
	}

	if newDist != st.Dist {
		st.Dist = newDist
		stateChanged = true
		// A distance update is sent out along all the incident edges.
		for _, nbr := range st.Nbrs {
			ctx.Send(int(nbr), distMsg{From: vid, Dist: newDist})
		}
		if sc.wave == waveInvalidate && newDist >= Inf {
			ctx.DirectOutput(ctx.Key(), struct{}{})
		}
	}
	if stateChanged {
		ctx.WriteState(0, st)
	}
	return false
}
