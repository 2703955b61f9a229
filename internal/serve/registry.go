package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sort"
	"time"

	"ripple/internal/ebsp"
	"ripple/internal/kvstore"
	"ripple/internal/matrix"
	"ripple/internal/pagerank"
	"ripple/internal/sssp"
	"ripple/internal/summa"
	"ripple/internal/workload"
)

// RunEnv is what the service hands a workload runner: the cancelable
// context, the shared store, the slot's engine, and the job's identity.
type RunEnv struct {
	Ctx   context.Context
	Store kvstore.Store
	// Engine is the slot's engine (checkpoints + observers attached). One
	// job runs on it at a time.
	Engine *ebsp.Engine
	// EngineOptions reproduce the slot engine's options, for workloads that
	// build an engine of their own (SUMMA).
	EngineOptions []ebsp.Option
	JobID         string
	// Prefix namespaces everything the job creates in the shared store —
	// table names and BSP job names — so concurrent tenants cannot collide
	// and checkpoints stay per-job. It is deterministic from the job ID, so
	// a restarted daemon reconstructs the same names and can resume.
	Prefix string
	Params json.RawMessage
	// Resume is set when a previous process died mid-run: the runner should
	// continue from its checkpoint when it can, and otherwise re-run from
	// the deterministic seed.
	Resume bool
	Logger *slog.Logger
}

// Runner executes one workload; the returned value is marshaled as the
// job's result document. Results must be deterministic for a given params
// document — restart-resume is verified by comparing result bytes.
type Runner func(env RunEnv) (any, error)

var runners = map[string]Runner{
	"pagerank": runPageRank,
	"sssp":     runSSSP,
	"summa":    runSUMMA,
}

func lookupRunner(name string) (Runner, bool) {
	r, ok := runners[name]
	return r, ok
}

// Workloads lists the registered workload names, sorted.
func Workloads() []string {
	out := make([]string, 0, len(runners))
	for name := range runners {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// dropTables removes the named tables if they exist (fresh-run hygiene after
// a canceled or crashed predecessor).
func dropTables(store kvstore.Store, names ...string) {
	for _, n := range names {
		if _, ok := store.LookupTable(n); ok {
			_ = store.DropTable(n)
		}
	}
}

// reopenForResume re-creates the job's tables on a store that lost its
// in-memory directory (daemon restart over a disk store): the state table
// with its recorded part count, then the checkpoint tables partitioned
// consistently with it. On stores that kept the tables this is a no-op.
func reopenForResume(store kvstore.Store, stateTable string, parts int, bspName string) error {
	if _, err := kvstore.OpenOrCreate(store, stateTable, kvstore.WithParts(parts)); err != nil {
		return err
	}
	meta, slots := ebsp.CheckpointTables(bspName, 1)
	for _, name := range slices.Concat([]string{meta}, slots[0], slots[1]) {
		if _, err := kvstore.OpenOrCreate(store, name, kvstore.ConsistentWith(stateTable)); err != nil {
			return err
		}
	}
	return nil
}

// --- PageRank: the resumable flagship workload -----------------------------

type pagerankParams struct {
	Vertices   int     `json:"vertices"`
	Edges      int     `json:"edges"`
	Zipf       float64 `json:"zipf"`
	Seed       int64   `json:"seed"`
	Damping    float64 `json:"damping"`
	Iterations int     `json:"iterations"`
	Epsilon    float64 `json:"epsilon"`
	Parts      int     `json:"parts"`
	// StepDelayMs slows each synchronized step (testing/demo knob: it makes
	// "restart the daemon mid-job" a controllable event).
	StepDelayMs int `json:"step_delay_ms"`
}

func (p *pagerankParams) normalize() {
	if p.Vertices <= 0 {
		p.Vertices = 200
	}
	if p.Edges <= 0 {
		p.Edges = 5 * p.Vertices
	}
	if p.Zipf <= 1 {
		p.Zipf = 2.0
	}
	if p.Iterations <= 0 {
		p.Iterations = 10
	}
	if p.Parts <= 0 {
		p.Parts = 4
	}
}

// runPageRank generates a seeded power-law graph and runs the paper's direct
// PageRank on the slot engine. It is the one fully resumable workload: on
// Resume it reopens the graph + checkpoint tables and continues from the
// snapshot; without a usable checkpoint it deterministically regenerates and
// re-runs, so the result bytes come out identical either way.
func runPageRank(env RunEnv) (any, error) {
	var p pagerankParams
	if err := decodeParams(env.Params, &p); err != nil {
		return nil, err
	}
	p.normalize()

	graphTable := env.Prefix + ".graph"
	bspName := env.Prefix + ".pagerank"
	cfg := pagerank.Config{
		Name:       bspName,
		GraphTable: graphTable,
		Damping:    p.Damping,
		Iterations: p.Iterations,
		Epsilon:    p.Epsilon,
	}

	buildJob := func() (*ebsp.Job, error) {
		job, err := pagerank.DirectJob(env.Store, cfg)
		if err != nil {
			return nil, err
		}
		if p.StepDelayMs > 0 {
			// The Aborter hook runs between steps and is outside the
			// checkpoint identity, so the delayed spec still resumes.
			job.Aborter = delayAborter(time.Duration(p.StepDelayMs) * time.Millisecond)
		}
		return job, nil
	}

	var res *ebsp.Result
	resumed := false
	if env.Resume {
		if err := reopenForResume(env.Store, graphTable, p.Parts, bspName); err != nil {
			return nil, err
		}
		job, err := buildJob()
		if err == nil {
			res, err = env.Engine.ResumeContext(env.Ctx, job)
		}
		switch {
		case err == nil:
			resumed = true
		case errors.Is(err, ebsp.ErrNoCheckpoint), errors.Is(err, ebsp.ErrCheckpointMismatch),
			errors.Is(err, pagerank.ErrBadConfig):
			// No usable snapshot (crashed before the first checkpoint, or
			// before the graph was even loaded): fall through to a fresh
			// deterministic run.
			env.Logger.Info("serve: no usable checkpoint, re-running", "job", env.JobID, "err", err)
			res = nil
		default:
			return nil, err
		}
	}
	if res == nil {
		// A stale checkpoint of bspName is the engine's to clear: a fresh
		// Run removes its record before it writes a snapshot.
		dropTables(env.Store, graphTable)
		g, err := workload.PowerLawDirected(workload.DeriveRand(p.Seed, "pagerank."+env.JobID),
			p.Vertices, p.Edges, p.Zipf)
		if err != nil {
			return nil, err
		}
		if _, err := pagerank.LoadGraph(env.Store, graphTable, g, p.Parts); err != nil {
			return nil, err
		}
		job, err := buildJob()
		if err != nil {
			return nil, err
		}
		res, err = env.Engine.RunContext(env.Ctx, job)
		if err != nil {
			return nil, err
		}
	}

	tab, ok := env.Store.LookupTable(graphTable)
	if !ok {
		return nil, fmt.Errorf("serve: graph table %q vanished", graphTable)
	}
	ranks, err := pagerank.ReadRanks(tab)
	if err != nil {
		return nil, err
	}
	rounded := make(map[int]float64, len(ranks))
	for k, v := range ranks {
		// Rounded well below any numerically meaningful digit but above
		// float jitter, so resumed and uninterrupted runs byte-match.
		rounded[k] = math.Round(v*1e9) / 1e9
	}
	return map[string]any{
		"ranks":   rounded,
		"steps":   res.Steps,
		"resumed": resumed,
	}, nil
}

// delayAborter slows each step without ever aborting.
func delayAborter(d time.Duration) ebsp.Aborter {
	return ebsp.AborterFunc(func(int, map[string]any) bool {
		time.Sleep(d)
		return false
	})
}

// --- Incremental SSSP ------------------------------------------------------

type ssspParams struct {
	Vertices   int     `json:"vertices"`
	Edges      int     `json:"edges"`
	Zipf       float64 `json:"zipf"`
	Seed       int64   `json:"seed"`
	Source     int     `json:"source"`
	Batches    int     `json:"batches"`
	BatchSize  int     `json:"batch_size"`
	RemoveFrac float64 `json:"remove_frac"`
	Parts      int     `json:"parts"`
}

func (p *ssspParams) normalize() {
	if p.Vertices <= 0 {
		p.Vertices = 200
	}
	if p.Edges <= 0 {
		p.Edges = 3 * p.Vertices
	}
	if p.Zipf <= 1 {
		p.Zipf = 2.0
	}
	if p.Batches < 0 {
		p.Batches = 0
	}
	if p.BatchSize <= 0 {
		p.BatchSize = 20
	}
	if p.RemoveFrac <= 0 || p.RemoveFrac >= 1 {
		p.RemoveFrac = 0.3
	}
	if p.Parts <= 0 {
		p.Parts = 4
	}
}

// runSSSP runs the paper's incremental SSSP (selective variant) over a
// seeded time-varying graph. Not checkpoint-resumable (each wave is a fresh
// short job); on Resume it re-runs deterministically from the seed.
// Cancellation is honored between change batches.
func runSSSP(env RunEnv) (any, error) {
	var p ssspParams
	if err := decodeParams(env.Params, &p); err != nil {
		return nil, err
	}
	p.normalize()

	table := env.Prefix + ".sssp"
	dropTables(env.Store, table)
	rng := workload.DeriveRand(p.Seed, "sssp."+env.JobID)
	g, err := workload.PowerLawUndirected(rng, p.Vertices, p.Edges, p.Zipf)
	if err != nil {
		return nil, err
	}
	sel := sssp.NewSelective(env.Engine, table, p.Source, p.Parts)
	if err := sel.Init(g); err != nil {
		return nil, err
	}
	applied := 0
	for b := 0; b < p.Batches; b++ {
		if err := env.Ctx.Err(); err != nil {
			return nil, err
		}
		batch := workload.ChangeBatch(rng, p.Vertices, p.BatchSize, p.Zipf, p.RemoveFrac)
		if _, err := sel.ApplyBatch(batch); err != nil {
			return nil, err
		}
		applied++
	}
	dist, err := sel.Distances()
	if err != nil {
		return nil, err
	}
	reachable := make(map[int]int32, len(dist))
	for k, v := range dist {
		reachable[k] = v
	}
	return map[string]any{
		"distances": reachable,
		"batches":   applied,
		"resumed":   false,
	}, nil
}

// --- SUMMA -----------------------------------------------------------------

type summaParams struct {
	N            int   `json:"n"`
	Grid         int   `json:"grid"`
	Seed         int64 `json:"seed"`
	Synchronized bool  `json:"synchronized"`
}

func (p *summaParams) normalize() {
	if p.N <= 0 {
		p.N = 48
	}
	if p.Grid < 2 {
		p.Grid = 3
	}
}

// runSUMMA multiplies two seeded dense matrices with the paper's §V-B SUMMA
// pattern. The workload builds its own engine, so the slot's observer
// options are passed through; cancellation reaches it via MultiplyContext.
// Not checkpoint-resumable (no-sync by default); Resume re-runs from seed.
func runSUMMA(env RunEnv) (any, error) {
	var p summaParams
	if err := decodeParams(env.Params, &p); err != nil {
		return nil, err
	}
	p.normalize()

	rng := workload.DeriveRand(p.Seed, "summa."+env.JobID)
	a := matrix.Random(rng, p.N, p.N)
	b := matrix.Random(rng, p.N, p.N)
	stateTable := env.Prefix + ".summa"
	dropTables(env.Store, stateTable)
	out, err := summa.MultiplyContext(env.Ctx, env.Store, summa.Config{
		Name:          env.Prefix + ".summa",
		Grid:          p.Grid,
		Synchronized:  p.Synchronized,
		StateTable:    stateTable,
		EngineOptions: env.EngineOptions,
	}, a, b)
	if err != nil {
		return nil, err
	}
	sum := 0.0
	for _, v := range out.C.Data {
		sum += v
	}
	return map[string]any{
		"rows":     out.C.Rows,
		"cols":     out.C.Cols,
		"checksum": math.Round(sum*1e6) / 1e6,
		"resumed":  false,
	}, nil
}

// decodeParams decodes a params document strictly: unknown fields are
// submission errors, not silent typos.
func decodeParams(raw json.RawMessage, into any) error {
	if len(raw) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("serve: bad params: %w", err)
	}
	return nil
}
