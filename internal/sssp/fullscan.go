package sssp

import (
	"fmt"
	"slices"

	"ripple/internal/ebsp"
	"ripple/internal/kvstore"
	"ripple/internal/mapreduce"
	"ripple/internal/tableops"
	"ripple/internal/workload"
)

// FsState is the full-scan variant's per-vertex state: the most recently
// computed annotation and the neighbor IDs — no caches, so every update wave
// must scan the whole graph.
type FsState struct {
	Dist int32
	Nbrs []int32
}

// fsMsg is the full-scan map phase's state-propagating message: the full
// state plus the minimum distance value heard from a neighbor, accumulated
// by the combiner.
type fsMsg struct {
	HasState bool
	State    FsState
	MinNbr   int32
}

// fsCombine is the variant's "combiner with an obvious implementation".
func fsCombine(_, a, b any) any {
	ma := asFsMsg(a)
	mb := asFsMsg(b)
	if mb.HasState {
		ma.State = mb.State
		ma.HasState = true
	}
	if mb.MinNbr < ma.MinNbr {
		ma.MinNbr = mb.MinNbr
	}
	return ma
}

func asFsMsg(v any) fsMsg {
	switch m := v.(type) {
	case fsMsg:
		return m
	case int32:
		return fsMsg{MinNbr: m}
	default:
		return fsMsg{MinNbr: Inf}
	}
}

// FullScan maintains distances with the MapReduce-style variant: each wave
// is a series of MapReduce-like two-step jobs driven externally until an
// aggregator reports that no vertex's distance changed.
type FullScan struct {
	engine *ebsp.Engine
	table  string
	source int
	parts  int
}

// NewFullScan creates a driver; Init must be called before ApplyBatch.
func NewFullScan(engine *ebsp.Engine, table string, source, parts int) *FullScan {
	return &FullScan{engine: engine, table: table, source: source, parts: parts}
}

// Init loads the graph and computes the initial annotations with decrease
// waves from a fresh +∞ labeling.
func (f *FullScan) Init(g *workload.UndirectedGraph) error {
	if err := checkSource(f.source, g.NumVertices); err != nil {
		return err
	}
	_, err := tableops.Load(f.engine.Store(), f.table, f.parts, g.NumVertices, func(u int) any {
		if u == f.source {
			return FsState{Dist: 0, Nbrs: g.Neighbors(u)}
		}
		return FsState{Dist: Inf, Nbrs: g.Neighbors(u)}
	})
	if err != nil {
		return err
	}
	_, err = f.runWave(waveDecrease)
	return err
}

// Distances reads all current annotations.
func (f *FullScan) Distances() (map[int]int32, error) {
	tab, ok := f.engine.Store().LookupTable(f.table)
	if !ok {
		return nil, fmt.Errorf("sssp: table %q missing", f.table)
	}
	pairs, err := kvstore.Dump(tab)
	if err != nil {
		return nil, err
	}
	out := make(map[int]int32, len(pairs))
	for k, v := range pairs {
		out[k.(int)] = v.(FsState).Dist
	}
	return out, nil
}

// ApplyBatch applies the changes to the stored graph and recomputes the
// annotations with full-scan waves.
func (f *FullScan) ApplyBatch(batch []workload.Change) (*BatchStats, error) {
	stats, _, err := editGraph[FsState](f.engine.Store(), f.table, batch)
	if err != nil {
		return nil, err
	}
	if stats.Applied == 0 {
		return stats, nil
	}
	if stats.HardCase {
		sum, err := f.runWave(waveInvalidate)
		if err != nil {
			return nil, err
		}
		stats.Steps += sum.Steps
		stats.Jobs += sum.Iterations
	}
	sum, err := f.runWave(waveDecrease)
	if err != nil {
		return nil, err
	}
	stats.Steps += sum.Steps
	stats.Jobs += sum.Iterations
	return stats, nil
}

// cloned, linked, unlinked and nbrs are FsState's edits for editGraph.
func (s FsState) cloned() FsState { return FsState{Dist: s.Dist, Nbrs: slices.Clone(s.Nbrs)} }

func (s FsState) linked(to int32, _ FsState) FsState { s.Nbrs = append(s.Nbrs, to); return s }

func (s FsState) unlinked(i int) FsState { s.Nbrs = slices.Delete(s.Nbrs, i, i+1); return s }

func (s FsState) nbrs() []int32 { return s.Nbrs }

const changedAggregator = "sssp.changed"

// runWave drives MapReduce-like jobs — each a fresh two-step job scanning
// the whole graph — until an aggregator counts zero changed vertices.
func (f *FullScan) runWave(wave int) (*mapreduce.Summary, error) {
	job := &mapreduce.IteratedJob{
		Name:                 fmt.Sprintf("sssp.fullscan.%s.w%d", f.table, wave),
		Table:                f.table,
		Mapper:               &fsMapper{},
		Reducer:              &fsReducer{wave: wave, source: int32(f.source)},
		Combiner:             fsCombine,
		Aggregators:          map[string]ebsp.Aggregator{changedAggregator: ebsp.IntSum{}},
		FreshJobPerIteration: true,
		MaxIterations:        1 << 20, // converges via the aggregator
		Converged: func(_ int, aggs map[string]any) bool {
			n, ok := aggs[changedAggregator].(int)
			return !ok || n == 0
		},
	}
	return mapreduce.RunIterated(f.engine, job)
}

// fsMapper sends each vertex a full state-propagating message to itself and
// a distance update along each incident edge.
type fsMapper struct{}

func (fsMapper) Map(key, value any, emit mapreduce.Emitter) error {
	st, ok := value.(FsState)
	if !ok {
		return fmt.Errorf("sssp: map saw %T", value)
	}
	emit(key, fsMsg{HasState: true, State: st, MinNbr: Inf})
	d := st.Dist
	for _, nbr := range st.Nbrs {
		emit(int(nbr), d)
	}
	return nil
}

// fsReducer combines the input messages — necessarily producing a
// preliminary full state — computes the new distance value per the wave,
// counts changes in the aggregator, and writes the state back.
type fsReducer struct {
	wave   int
	source int32
}

func (r *fsReducer) ReduceWithContext(pc mapreduce.PhaseContext, key any, values []any, emit mapreduce.Emitter) error {
	merged := fsMsg{MinNbr: Inf}
	for _, v := range values {
		merged = fsCombine(key, merged, v).(fsMsg)
	}
	if !merged.HasState {
		return nil // a distance update reached a vertex with no state
	}
	st := merged.State
	vid := int32(key.(int))
	newDist := st.Dist
	switch r.wave {
	case waveInvalidate:
		// If no remaining neighbor supports the previous value, it becomes
		// +∞. The minimum neighbor value tells all: support exists exactly
		// when min == previous-1 (or the vertex is the source).
		if vid != r.source && st.Dist < Inf && merged.MinNbr != st.Dist-1 {
			newDist = Inf
		}
	case waveDecrease:
		if vid == r.source {
			newDist = 0
		} else if merged.MinNbr < Inf && merged.MinNbr+1 < newDist {
			newDist = merged.MinNbr + 1
		}
	}
	if newDist != st.Dist {
		pc.AggregateValue(changedAggregator, 1)
		st.Dist = newDist
	}
	emit(key, st)
	return nil
}

// Reduce implements mapreduce.Reducer for completeness.
func (r *fsReducer) Reduce(key any, values []any, emit mapreduce.Emitter) error {
	return fmt.Errorf("sssp: reducer requires phase context")
}
