// Package pagerank implements the paper's PageRank evaluation (§V-A): two
// variants of the same numerical iteration on the K/V EBSP platform.
//
// The direct variant defines a component per vertex and a step per iteration
// of the equations; both the ranking state and the graph structure ride in
// BSP messages. The first step begins from a table holding the graph
// structure (via the loader) and the last step replaces each entry in that
// table with an enhanced vertex object holding its rank as well as its
// structure — one synchronization and one round of I/O per iteration.
//
// The MapReduce variant emulates the MapReduce programming model on the same
// platform: two BSP steps per iteration (one map-like, one reduce-like),
// with structure and ranking state carried in messages from map to reduce
// and stored in the K/V table from reduce to the following map. It is purely
// inferior — two synchronizations and an extra round of I/O per iteration —
// which is exactly what Table I measures.
package pagerank

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"ripple/internal/codec"
	"ripple/internal/ebsp"
	"ripple/internal/kvstore"
	"ripple/internal/mapreduce"
	"ripple/internal/tableops"
	"ripple/internal/workload"
)

// ErrBadConfig is returned for invalid configurations.
var ErrBadConfig = errors.New("pagerank: invalid config")

// Vertex is a structure-only graph entry: the ID of each vertex at the far
// end of an outgoing edge (the paper's Java int array).
type Vertex struct {
	Out []int32
}

// Ranked is the enhanced vertex object holding rank as well as structure.
type Ranked struct {
	Out  []int32
	Rank float64
}

// state is the BSP message carrying a vertex's structure and ranking state
// forward to the next step, including the double that accumulates
// contributions under the combiner.
type state struct {
	Out     []int32
	Rank    float64
	Contrib float64
}

func init() {
	codec.Register(Vertex{})
	codec.Register(Ranked{})
	codec.Register(state{})

	// Fast wire codecs: every value PageRank stores or sends is one of these
	// three shapes, so the whole workload stays off the gob fallback.
	codec.RegisterFast(Vertex{}, codec.FastCodec{
		Encode: func(e *codec.Encoder, v any) error {
			return e.Any(v.(Vertex).Out)
		},
		Decode: func(d *codec.Decoder) (any, error) {
			out, err := decI32s(d)
			if err != nil {
				return nil, err
			}
			return Vertex{Out: out}, nil
		},
		Copy: func(v any) (any, error) {
			return Vertex{Out: append([]int32(nil), v.(Vertex).Out...)}, nil
		},
	})
	codec.RegisterFast(Ranked{}, codec.FastCodec{
		Encode: func(e *codec.Encoder, v any) error {
			r := v.(Ranked)
			if err := e.Any(r.Out); err != nil {
				return err
			}
			e.Float64(r.Rank)
			return nil
		},
		Decode: func(d *codec.Decoder) (any, error) {
			var r Ranked
			var err error
			if r.Out, err = decI32s(d); err != nil {
				return nil, err
			}
			if r.Rank, err = d.Float64(); err != nil {
				return nil, err
			}
			return r, nil
		},
		Copy: func(v any) (any, error) {
			r := v.(Ranked)
			return Ranked{Out: append([]int32(nil), r.Out...), Rank: r.Rank}, nil
		},
	})
	codec.RegisterFast(state{}, codec.FastCodec{
		Encode: func(e *codec.Encoder, v any) error {
			s := v.(state)
			if err := e.Any(s.Out); err != nil {
				return err
			}
			e.Float64(s.Rank)
			e.Float64(s.Contrib)
			return nil
		},
		Decode: func(d *codec.Decoder) (any, error) {
			var s state
			var err error
			if s.Out, err = decI32s(d); err != nil {
				return nil, err
			}
			if s.Rank, err = d.Float64(); err != nil {
				return nil, err
			}
			if s.Contrib, err = d.Float64(); err != nil {
				return nil, err
			}
			return s, nil
		},
		Copy: func(v any) (any, error) {
			s := v.(state)
			s.Out = append([]int32(nil), s.Out...)
			return s, nil
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
		return nil, fmt.Errorf("pagerank: expected []int32 on the wire, got %T", v)
	}
	return s, nil
}

// Config parameterizes a PageRank run.
type Config struct {
	// Name overrides the BSP job name ("pagerank.direct" when empty). A
	// multi-tenant host must give concurrent runs distinct names: checkpoint
	// tables are keyed by job name, and one engine admits only one execution
	// per name at a time.
	Name string
	// GraphTable names the table holding Vertex entries keyed by int vertex
	// ID; it is rewritten with Ranked entries when the job completes.
	GraphTable string
	// Damping is the damping factor d in (0, 1); 0 means 0.85.
	Damping float64
	// Iterations is the number of iterations of the equations (with Epsilon
	// set, an upper bound).
	Iterations int
	// Epsilon, when positive, stops the iteration as soon as the L1 distance
	// between successive rank vectors falls below it — detected in-model via
	// an aggregator, so the job still ends by running out of enabled
	// components rather than by client intervention.
	Epsilon float64
	// DisableCombiner turns the message combiner off (ablation only): every
	// individual contribution then travels and is delivered separately.
	DisableCombiner bool
}

func (c *Config) normalize() error {
	if c.Damping == 0 {
		c.Damping = 0.85
	}
	if c.Damping <= 0 || c.Damping >= 1 {
		return fmt.Errorf("%w: damping %v", ErrBadConfig, c.Damping)
	}
	if c.Iterations <= 0 {
		return fmt.Errorf("%w: iterations %d", ErrBadConfig, c.Iterations)
	}
	if c.GraphTable == "" {
		return fmt.Errorf("%w: no graph table", ErrBadConfig)
	}
	return nil
}

const (
	sinkAggregator  = "pagerank.sink"
	deltaAggregator = "pagerank.delta"
)

// combiner merges the two message varieties: rank contributions (float64)
// sum; a contribution folds into a state message's accumulating double.
type combiner struct{}

var _ ebsp.MessageCombiner = combiner{}

// CombineMessages implements ebsp.MessageCombiner.
func (combiner) CombineMessages(_, m1, m2 any) any {
	switch a := m1.(type) {
	case float64:
		switch b := m2.(type) {
		case float64:
			return a + b
		case state:
			b.Contrib += a
			return b
		}
	case state:
		switch b := m2.(type) {
		case float64:
			a.Contrib += b
			return a
		case state:
			// Two state messages for one vertex cannot happen in a healthy
			// run; merge defensively.
			a.Contrib += b.Contrib
			return a
		}
	}
	return m1
}

// directCompute is the direct variant's component function. The first step
// begins by reading the table holding the graph structure and scatters the
// initial ranks' contributions; each following step completes one iteration
// of the equations, carrying structure and ranking state forward in a
// message to itself; the last step replaces the table entry with the
// enhanced vertex object.
type directCompute struct {
	cfg         Config
	numVertices int
}

func (dc *directCompute) Compute(ctx *ebsp.Context) bool {
	n := float64(dc.numVertices)
	d := dc.cfg.Damping

	if ctx.StepNum() == 1 {
		// Bootstrap: read structure from the table; scatter R₀ = 1/|V|.
		raw, ok := ctx.ReadState(0)
		if !ok {
			return false
		}
		out := structureOf(raw)
		r0 := 1.0 / n
		sendContributions(ctx, out, r0, n)
		ctx.Send(ctx.Key(), state{Out: out, Rank: r0})
		return false
	}

	var st state
	sawState := false
	contrib := 0.0
	for _, raw := range ctx.InputMessages() {
		switch m := raw.(type) {
		case state:
			st = m
			sawState = true
			contrib += m.Contrib
		case float64:
			contrib += m
		}
	}
	if !sawState {
		// A contribution reached a vertex that carries no state message —
		// possible only for IDs outside the loaded graph; drop it.
		return false
	}
	sink := 0.0
	if v, ok := ctx.AggregateResult(sinkAggregator).(float64); ok {
		sink = v
	}
	newRank := (1-d)/n + d*(contrib+sink)

	done := ctx.StepNum() > dc.cfg.Iterations
	if !done && dc.cfg.Epsilon > 0 {
		// In-model convergence: every component reads the same previous-step
		// L1 delta, so all finalize at the same step and the job ends by
		// running out of enabled components.
		if delta, ok := ctx.AggregateResult(deltaAggregator).(float64); ok && delta < dc.cfg.Epsilon {
			done = true
		}
	}
	if done {
		// Last step: replace the table entry with the enhanced vertex.
		ctx.WriteState(0, Ranked{Out: st.Out, Rank: newRank})
		return false
	}
	if dc.cfg.Epsilon > 0 {
		ctx.AggregateValue(deltaAggregator, math.Abs(newRank-st.Rank))
	}
	sendContributions(ctx, st.Out, newRank, n)
	ctx.Send(ctx.Key(), state{Out: st.Out, Rank: newRank})
	return false
}

// sendContributions emits R·A'(v,·): along edges when W > 0, into the sink
// aggregator (R/|V|) when W = 0.
func sendContributions(ctx *ebsp.Context, out []int32, rank, n float64) {
	if len(out) == 0 {
		ctx.AggregateValue(sinkAggregator, rank/n)
		return
	}
	share := rank / float64(len(out))
	for _, v := range out {
		ctx.Send(int(v), share)
	}
}

// DirectJob builds the direct variant's job spec against store without
// running it. A host that wants to drive the job itself — RunContext for
// cancellation, Resume after a restart — builds the identical spec through
// here; RunDirect stays the one-call path.
func DirectJob(store kvstore.Store, cfg Config) (*ebsp.Job, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	tab, ok := store.LookupTable(cfg.GraphTable)
	if !ok {
		return nil, fmt.Errorf("pagerank: graph table %q does not exist", cfg.GraphTable)
	}
	n, err := tab.Size()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: empty graph", ErrBadConfig)
	}

	var cmb ebsp.MessageCombiner = combiner{}
	if cfg.DisableCombiner {
		cmb = nil
	}
	aggs := map[string]ebsp.Aggregator{sinkAggregator: ebsp.Float64Sum{}}
	if cfg.Epsilon > 0 {
		aggs[deltaAggregator] = ebsp.Float64Sum{}
	}
	name := cfg.Name
	if name == "" {
		name = "pagerank.direct"
	}
	return &ebsp.Job{
		Name:        name,
		StateTables: []string{cfg.GraphTable},
		Compute:     &directCompute{cfg: cfg, numVertices: n},
		Combiner:    cmb,
		Aggregators: aggs,
		// One bootstrap step that reads the table, then one step per
		// iteration of the equations (the last one also writes the table).
		MaxSteps: cfg.Iterations + 1,
		Loaders: []ebsp.Loader{&ebsp.TableLoader{
			Table: cfg.GraphTable,
			Store: store,
			Each: func(k, _ any, lc *ebsp.LoadContext) error {
				lc.Enable(k)
				return nil
			},
		}},
	}, nil
}

// RunDirect executes the direct variant: one step (one synchronization, no
// table I/O) per iteration.
func RunDirect(e *ebsp.Engine, cfg Config) (*ebsp.Result, error) {
	job, err := DirectJob(e.Store(), cfg)
	if err != nil {
		return nil, err
	}
	return e.Run(job)
}

// structureOf accepts either a plain or an enhanced vertex entry, so a run
// can start from a previously ranked table.
func structureOf(v any) []int32 {
	switch t := v.(type) {
	case Vertex:
		return t.Out
	case Ranked:
		return t.Out
	default:
		return nil
	}
}

// mrMapper is the MapReduce variant's map phase: read structure and ranking
// state from the table, send a full state message to itself and rank
// contributions along edges (the shuffle), and feed the sink aggregator.
type mrMapper struct {
	numVertices int
}

func (m *mrMapper) MapWithContext(pc mapreduce.PhaseContext, key, value any, emit mapreduce.Emitter) error {
	rv, ok := value.(Ranked)
	if !ok {
		return fmt.Errorf("pagerank: map saw %T", value)
	}
	emit(key, state{Out: rv.Out, Rank: rv.Rank})
	if len(rv.Out) == 0 {
		pc.AggregateValue(sinkAggregator, rv.Rank/float64(m.numVertices))
		return nil
	}
	share := rv.Rank / float64(len(rv.Out))
	for _, dst := range rv.Out {
		emit(int(dst), share)
	}
	return nil
}

// Map implements mapreduce.Mapper for completeness; RunMapReduce always uses
// the context form.
func (m *mrMapper) Map(key, value any, emit mapreduce.Emitter) error {
	return fmt.Errorf("pagerank: mapper requires phase context")
}

// mrReducer completes one iteration of the equations and writes the new
// structure-plus-rank back to the K/V table.
type mrReducer struct {
	cfg         Config
	numVertices int
}

func (r *mrReducer) ReduceWithContext(pc mapreduce.PhaseContext, key any, values []any, emit mapreduce.Emitter) error {
	var st state
	sawState := false
	contrib := 0.0
	for _, raw := range values {
		switch m := raw.(type) {
		case state:
			st = m
			sawState = true
			contrib += m.Contrib
		case float64:
			contrib += m
		}
	}
	if !sawState {
		return nil
	}
	sink := 0.0
	if v, ok := pc.AggregateResult(sinkAggregator).(float64); ok {
		sink = v
	}
	n := float64(r.numVertices)
	d := r.cfg.Damping
	newRank := (1-d)/n + d*(contrib+sink)
	if r.cfg.Epsilon > 0 {
		pc.AggregateValue(deltaAggregator, math.Abs(newRank-st.Rank))
	}
	emit(key, Ranked{Out: st.Out, Rank: newRank})
	return nil
}

// Reduce implements mapreduce.Reducer for completeness.
func (r *mrReducer) Reduce(key any, values []any, emit mapreduce.Emitter) error {
	return fmt.Errorf("pagerank: reducer requires phase context")
}

// RunMapReduce executes the MapReduce variant: two steps (two
// synchronizations plus a round of table I/O) per iteration. The graph table
// must hold Ranked entries; use SeedRanks to initialize them.
func RunMapReduce(e *ebsp.Engine, cfg Config) (*mapreduce.Summary, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	tab, ok := e.Store().LookupTable(cfg.GraphTable)
	if !ok {
		return nil, fmt.Errorf("pagerank: graph table %q does not exist", cfg.GraphTable)
	}
	n, err := tab.Size()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: empty graph", ErrBadConfig)
	}
	aggs := map[string]ebsp.Aggregator{sinkAggregator: ebsp.Float64Sum{}}
	if cfg.Epsilon > 0 {
		aggs[deltaAggregator] = ebsp.Float64Sum{}
	}
	job := &mapreduce.IteratedJob{
		Name:          "pagerank.mr",
		Table:         cfg.GraphTable,
		Mapper:        &mrMapper{numVertices: n},
		Reducer:       &mrReducer{cfg: cfg, numVertices: n},
		Combiner:      func(k, a, b any) any { return combiner{}.CombineMessages(k, a, b) },
		Aggregators:   aggs,
		MaxIterations: cfg.Iterations,
	}
	if cfg.Epsilon > 0 {
		job.Converged = func(_ int, aggregates map[string]any) bool {
			delta, ok := aggregates[deltaAggregator].(float64)
			return ok && delta < cfg.Epsilon
		}
	}
	return mapreduce.RunIterated(e, job)
}

// LoadGraph stores a generated directed graph as Vertex entries, one agent
// per part. Each entry gets its own copy of the adjacency list, since part
// views may keep the value itself and callers reuse one graph across jobs.
func LoadGraph(store kvstore.Store, table string, g *workload.DirectedGraph, parts int) (kvstore.Table, error) {
	return tableops.Load(store, table, parts, g.NumVertices, func(u int) any {
		return Vertex{Out: slices.Clone(g.Out[u])}
	})
}

// SeedRanks rewrites a structure-only table with Ranked entries carrying the
// uniform initial ranks, the MapReduce variant's starting condition. One
// agent per part reads the part's pairs, then writes them.
func SeedRanks(tab kvstore.Table) error {
	n, err := tab.Size()
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("%w: empty graph", ErrBadConfig)
	}
	r0 := 1.0 / float64(n)
	_, err = tab.EnumerateParts(kvstore.PartConsumerFuncs{
		ProcessFn: func(sv kvstore.ShardView) (any, error) {
			pv, err := sv.View(tab.Name())
			if err != nil {
				return nil, err
			}
			var keys, vals []any
			err = pv.Enumerate(func(k, v any) (bool, error) {
				keys, vals = append(keys, k), append(vals, Ranked{Out: structureOf(v), Rank: r0})
				return false, nil
			})
			for i := 0; err == nil && i < len(keys); i++ {
				err = pv.Put(keys[i], vals[i])
			}
			return nil, err
		},
	})
	return err
}

// ReadRanks extracts the final ranks from a graph table.
func ReadRanks(tab kvstore.Table) (map[int]float64, error) {
	pairs, err := kvstore.Dump(tab)
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64, len(pairs))
	for k, v := range pairs {
		rv, ok := v.(Ranked)
		if !ok {
			return nil, fmt.Errorf("pagerank: entry %v is %T, not Ranked", k, v)
		}
		out[k.(int)] = rv.Rank
	}
	return out, nil
}

// Reference computes the same iteration sequentially, for verification.
func Reference(g *workload.DirectedGraph, damping float64, iterations int) []float64 {
	n := g.NumVertices
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1.0 / float64(n)
	}
	for it := 0; it < iterations; it++ {
		sink := 0.0
		for u := 0; u < n; u++ {
			if len(g.Out[u]) == 0 {
				sink += rank[u] / float64(n)
			}
		}
		base := (1 - damping) / float64(n)
		for v := 0; v < n; v++ {
			next[v] = base + damping*sink
		}
		for u := 0; u < n; u++ {
			if len(g.Out[u]) == 0 {
				continue
			}
			share := damping * rank[u] / float64(len(g.Out[u]))
			for _, v := range g.Out[u] {
				next[v] += share
			}
		}
		rank, next = next, rank
	}
	return rank
}
