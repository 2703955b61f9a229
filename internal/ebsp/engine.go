package ebsp

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"ripple/internal/codec"
	"ripple/internal/kvstore"
	"ripple/internal/metrics"
	"ripple/internal/mq"
	"ripple/internal/profile"
	"ripple/internal/tableops"
	"ripple/internal/trace"
)

// Engine executes K/V EBSP jobs against one store (paper §IV-A). An Engine
// is safe for concurrent use; each Run is independent.
type Engine struct {
	store           kvstore.Store
	mqsys           mq.Queuing
	mqOnce          sync.Once // guards the lazy mqsys write in mqSystem
	metrics         *metrics.Collector
	tracer          *trace.Tracer
	sampler         *trace.Sampler
	logger          *slog.Logger
	prof            *profile.Recorder
	override        func(Strategy) Strategy
	observer        StepObserver
	progress        ProgressObserver
	progressEvery   int64 // no-sync envelope-count watermark interval
	aggTabTh        int   // aggregator count above which the table-based path is used
	retries         int   // per-part step retries under fast recovery
	checkpointEvery int   // barrier interval between checkpoints; 0 disables

	// Active job names: one execution (Run or Resume) per job name at a
	// time on one engine. Two same-named executions would fight over the
	// job's checkpoint tables (CheckpointTables) and, for Resume, restore a
	// snapshot into state tables another run is actively mutating; the
	// second caller gets ErrJobBusy instead.
	activeMu sync.Mutex
	active   map[string]bool
}

// ErrJobBusy is returned by RunContext and Resume when an execution of the
// same job name is already in flight on this engine. Resuming (or re-running)
// a job that is still running would corrupt its shared checkpoint tables and
// state; callers should wait for the running execution or cancel it first.
var ErrJobBusy = fmt.Errorf("ebsp: an execution of this job is already in flight on this engine")

// acquireJob registers a job name as executing; the matching releaseJob must
// run when the execution ends.
func (e *Engine) acquireJob(name string) error {
	e.activeMu.Lock()
	defer e.activeMu.Unlock()
	if e.active == nil {
		e.active = make(map[string]bool)
	}
	if e.active[name] {
		return fmt.Errorf("%w: %q", ErrJobBusy, name)
	}
	e.active[name] = true
	return nil
}

// jobActive reports whether an execution of the job name is in flight.
func (e *Engine) jobActive(name string) bool {
	e.activeMu.Lock()
	defer e.activeMu.Unlock()
	return e.active[name]
}

func (e *Engine) releaseJob(name string) {
	e.activeMu.Lock()
	delete(e.active, name)
	e.activeMu.Unlock()
}

// Option configures an Engine.
type Option func(*Engine)

// WithMetrics attaches a metrics collector.
func WithMetrics(m *metrics.Collector) Option {
	return func(e *Engine) { e.metrics = m }
}

// WithTracer attaches an event tracer recording span events (job/step
// boundaries, barriers, per-part compute, checkpoints, no-sync progress)
// for both execution modes.
func WithTracer(t *trace.Tracer) Option {
	return func(e *Engine) { e.tracer = t }
}

// WithTraceSampler installs the head-sampling policy for causal tracing.
// The decision is made once per job run from the deterministically derived
// trace ID, so a given (job sequence, seed) pair reproduces the identical
// sampled span set. Without a sampler every run is sampled (rate 1). Fault,
// retry, and failover spans are recorded regardless of the head decision
// (the tail policy). Sampling only matters when a tracer is attached.
func WithTraceSampler(s *trace.Sampler) Option {
	return func(e *Engine) { e.sampler = s }
}

// WithLogger attaches a structured logger. The engine derives job-scoped
// (and, at debug level, step/part-scoped) loggers from it, carrying trace
// and span IDs so log lines join against span dumps. Without one the
// engine logs nothing, at zero cost on the data plane.
func WithLogger(l *slog.Logger) Option {
	return func(e *Engine) { e.logger = l }
}

// WithProfiler attaches a per-part step profiler: the engine records one
// StepProfile per (job, step, part) — compute, barrier wait, queue wait,
// message/store counts, and fault/retry attribution — into the recorder's
// bounded ring. Profiling adds measurable overhead (notably hot-key tracking
// and spill-size encoding), so attach one only when attribution is wanted.
func WithProfiler(r *profile.Recorder) Option {
	return func(e *Engine) { e.prof = r }
}

// WithMQ supplies the queuing implementation used for no-sync execution.
// Without one, the engine creates a private in-process mq.System on demand.
func WithMQ(sys mq.Queuing) Option {
	return func(e *Engine) { e.mqsys = sys }
}

// WithStrategyOverride installs a hook that may adjust the derived execution
// strategy. Adjustments are clamped to the conservative direction (an
// override can disable an optimization, never force an unsafe one), so it is
// primarily useful for ablation experiments: forcing barriers onto a no-sync-
// eligible job, forcing collection, disabling work stealing, and so on.
func WithStrategyOverride(f func(Strategy) Strategy) Option {
	return func(e *Engine) { e.override = f }
}

// WithAggTableThreshold sets the number of individual aggregators above which
// aggregation goes through auxiliary tables and another round of enumeration
// instead of being merged client-side (paper §IV-A). Default 16.
func WithAggTableThreshold(n int) Option {
	return func(e *Engine) {
		if n >= 0 {
			e.aggTabTh = n
		}
	}
}

// WithRecoveryRetries bounds each rung of the recovery ladder: the retries
// of one transient failure, the replays of a part step whose shard failed
// under fast recovery, and the failover reruns of one job. Default 3.
func WithRecoveryRetries(n int) Option {
	return func(e *Engine) {
		if n >= 0 {
			e.retries = n
		}
	}
}

// NewEngine creates an Engine bound to a store.
func NewEngine(store kvstore.Store, opts ...Option) *Engine {
	e := &Engine{store: store, aggTabTh: 16, retries: 3}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Store returns the engine's store.
func (e *Engine) Store() kvstore.Store { return e.store }

// Metrics returns the engine's collector (possibly nil).
func (e *Engine) Metrics() *metrics.Collector { return e.metrics }

// Tracer returns the engine's event tracer (possibly nil).
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// Sampler returns the engine's trace sampler (possibly nil = sample all).
func (e *Engine) Sampler() *trace.Sampler { return e.sampler }

// Logger returns the engine's structured logger (possibly nil).
func (e *Engine) Logger() *slog.Logger { return e.logger }

// Profiler returns the engine's step profiler (possibly nil).
func (e *Engine) Profiler() *profile.Recorder { return e.prof }

// jobRun is the per-execution state shared by the sync and no-sync paths.
type jobRun struct {
	engine   *Engine
	job      *Job
	ctx      context.Context
	strategy Strategy

	placement   kvstore.Table // drives partitioning and agent dispatch
	parts       int
	stateTables []kvstore.Table
	transport   kvstore.Table // sync path: spill transport
	refTable    kvstore.Table // broadcast data, may be nil
	metaTable   kvstore.Table // fast recovery: part -> completed step
	aggPartials kvstore.Table // large-aggregator-set path: per-part partials
	aggResults  kvstore.Table // large-aggregator-set path: ubiquitous results

	ckptMeta  kvstore.Table      // checkpoint meta table, once opened
	ckptSlots [2][]kvstore.Table // each slot's snapshot tables, once opened
	ckptNext  int                // the slot the next checkpoint writes

	aggPrev map[string]any // results of previous step's aggregation

	sensor          kvstore.FailureSensor // store failover sensor, may be nil
	sensedFailovers int64                 // sensor reading absorbed so far
	lastStep        int                   // most recently completed step (sync path)

	runID    int64        // engine-unique run sequence number
	traceID  uint64       // causal trace ID; 0 when untraced
	sampled  bool         // head-sampling decision for this run
	rootSpan uint64       // span ID of the job root (job_start/job_end)
	loadSpan uint64       // span ID of the load phase
	log      *slog.Logger // job-scoped logger, never nil

	directMu   sync.Mutex
	recoveries atomic.Int64
	delivered  atomic.Int64 // no-sync: envelopes delivered (progress watermarks)
	sent       atomic.Int64 // no-sync: envelopes sent, seeds included

	privateTables []string
}

// Run executes a job to completion and returns its results (final aggregator
// values and step count; final states are in the store / the exporters).
func (e *Engine) Run(job *Job) (*Result, error) {
	return e.RunContext(context.Background(), job)
}

// RunContext is Run with cancellation: synchronized jobs stop at the next
// barrier once ctx is done, no-sync jobs stop as their workers notice; the
// context error is returned (wrapped). Work already committed to the store
// stays; combine with WithCheckpoints to make a cancelled job resumable.
func (e *Engine) RunContext(ctx context.Context, job *Job) (*Result, error) {
	return e.execute(ctx, job, false)
}

// execute is the one driver behind RunContext and ResumeContext: it admits
// the job, plans its strategy and drives the run. A fresh run loads its
// initial condition; a resumed one restores its last checkpoint instead,
// always synchronized, since checkpoints exist only at barriers. A resume
// reads and checks the checkpoint before it touches any table.
func (e *Engine) execute(ctx context.Context, job *Job, resume bool) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := job.validate(); err != nil {
		return nil, err
	}
	if resume {
		// With no checkpoint meta table there is nothing to load: answer
		// without taking the name guard, so a Resume with nothing to resume
		// never turns a concurrent Run away.
		if _, ok := e.store.LookupTable(ckptMetaTable(job.Name)); !ok {
			if e.jobActive(job.Name) {
				return nil, fmt.Errorf("%w: %q", ErrJobBusy, job.Name)
			}
			return nil, fmt.Errorf("%w: %q", ErrNoCheckpoint, job.Name)
		}
	}
	if err := e.acquireJob(job.Name); err != nil {
		return nil, err
	}
	defer e.releaseJob(job.Name)
	derived := planFor(job)
	strategy := derived
	if e.override != nil {
		strategy = e.override(derived).Clamp(derived)
	}
	strategy.Sync = strategy.Sync || resume
	if strategy.FastRecovery {
		// Fast recovery needs per-shard transactions; without them fall back
		// to plain execution.
		if _, ok := e.store.(kvstore.Transactional); !ok {
			strategy.FastRecovery = false
		}
	}

	run := &jobRun{
		engine:   e,
		job:      job,
		ctx:      ctx,
		strategy: strategy,
		aggPrev:  make(map[string]any),
		// The checkpoint read below precedes the run's trace; its retries
		// record without trace context.
		log: e.jobLogger(job.Name, 0),
	}
	var meta *checkpointMeta
	if resume {
		m, err := run.loadCheckpoint()
		if err != nil {
			return nil, err
		}
		meta = &m
	}
	run.runID = runSeq.Add(1)
	return run.drive(meta)
}

// drive runs an admitted job: tables, then load — or, given the checkpoint
// it resumes from, restore — then the job spans, the sync loop with
// auto-recovery (or no-sync), and the export.
func (run *jobRun) drive(meta *checkpointMeta) (*Result, error) {
	e, job, strategy := run.engine, run.job, run.strategy
	run.setupTraceContext()
	defer run.cleanup()
	if err := run.setupTables(); err != nil {
		return nil, err
	}
	loadStart := time.Now()
	var lc *LoadContext
	var err error
	if meta != nil {
		if err = run.restoreCheckpoint(*meta); err == nil {
			err = run.setupAggTables()
		}
		if err == nil {
			run.recordRecovery(trace.KindResume, meta.Step, -1, int64(meta.Step), 0, nil)
		}
	} else {
		lc, err = run.load()
	}
	if err != nil {
		run.log.Error("job load failed", "err", err)
		return nil, err
	}

	if fs, ok := e.store.(kvstore.FailureSensor); ok {
		run.sensor = fs
		run.sensedFailovers = fs.Failovers()
	}

	jobStart := time.Now()
	run.log.Info("job starting", "parts", run.parts, "sync", strategy.Sync, "sampled", run.sampled)
	if run.sampled {
		e.tracer.RecordSpan(trace.Span{Kind: trace.KindJobStart, Job: job.Name, Part: -1,
			N: int64(run.parts), Trace: run.traceID, Span: run.rootSpan,
			Attrs: map[string]string{"sync": fmt.Sprint(strategy.Sync)}})
		if lc != nil {
			e.tracer.RecordSpan(trace.Span{Kind: trace.KindLoad, Job: job.Name, Part: -1,
				N: int64(len(lc.envs)), Dur: time.Since(loadStart),
				Trace: run.traceID, Span: run.loadSpan, Parent: run.rootSpan})
		}
	} else {
		e.tracer.Record(trace.KindJobStart, job.Name, 0, -1, int64(run.parts), 0)
	}
	var res *Result
	switch {
	case !strategy.Sync:
		res, err = run.runNoSync(lc)
	case meta != nil:
		res, err = run.syncLoop(meta.Step, meta.Pending)
	default:
		res, err = run.runSync(lc)
	}
	// Self-healing: a shard failover surfaces as (or wraps) ErrShardFailed;
	// with checkpoints enabled the engine heals replication and re-runs a
	// synchronized job from the last completed checkpoint instead of failing
	// it — no manual Resume needed.
	for reruns := 0; strategy.Sync && errors.Is(err, kvstore.ErrShardFailed) &&
		e.checkpointEvery > 0 && reruns < e.retries; reruns++ {
		res, err = run.recoverAndRerun(err)
	}
	if err != nil {
		run.log.Error("job failed", "err", err)
		return nil, err
	}
	e.tracer.RecordSpan(trace.Span{Kind: trace.KindJobEnd, Job: job.Name, Step: res.Steps,
		Part: -1, N: int64(res.Steps), Dur: time.Since(jobStart),
		Trace: run.traceID, Span: run.rootSpan})
	run.log.Info("job finished", "steps", res.Steps, "dur", time.Since(jobStart),
		"recoveries", run.recoveries.Load())
	res.Strategy = strategy
	res.Recoveries = int(run.recoveries.Load())
	if err := run.export(); err != nil {
		run.log.Error("job export failed", "err", err)
		return nil, err
	}
	return res, nil
}

// setupTraceContext derives the run's trace identity and makes the head-
// sampling decision. The IDs are pure functions of (job name, run sequence,
// sampler seed), so runs replay to identical trace IDs under a fixed seed —
// the same determinism contract the chaos injector keeps. Unsampled (and
// untraced) runs leave traceID zero: envelopes then carry no context and
// the wire format is byte-identical to the pre-trace layout.
func (run *jobRun) setupTraceContext() {
	e := run.engine
	if e.tracer != nil {
		id := trace.TraceID(run.job.Name, run.runID, e.sampler.Seed())
		if e.sampler.Sample(id) {
			run.traceID = id
			run.sampled = true
			run.rootSpan = trace.SpanID(id, -1, -1)
			run.loadSpan = trace.SpanID(id, 0, -1)
		}
	}
	// Bind the run's trace to the store's transport (when it is one), so RPC
	// frames carry the trace ID and server-side spans join the causal chains.
	if tb, ok := e.store.(kvstore.TraceBinder); ok {
		tb.BindTrace(run.traceID)
	}
	run.log = e.jobLogger(run.job.Name, run.traceID)
}

// setupTables resolves the placement table, opens/creates state tables, and
// creates the run's private tables.
func (run *jobRun) setupTables() error {
	e := run.engine
	job := run.job
	var err error

	// Resolve placement.
	placementName := job.Placement
	if placementName == "" {
		placementName = placementTable(e.store, job.StateTables)
	} else if t, ok := e.store.LookupTable(placementName); ok && t.Ubiquitous() {
		return fmt.Errorf("%w: placement table %q is ubiquitous", ErrBadJob, placementName)
	}
	if placementName == "" {
		// Pure-message or all-ubiquitous job: private placement table.
		run.placement, err = run.privateTable("placement", kvstore.WithParts(job.PartsHint))
	} else {
		// The placement table may not exist yet: create it, honoring
		// PartsHint (0 is the store's default).
		run.placement, err = kvstore.OpenOrCreate(e.store, placementName, kvstore.WithParts(job.PartsHint))
	}
	if err != nil {
		return err
	}
	run.parts = run.placement.Parts()

	// Open or create the state tables, consistently partitioned with the
	// placement table.
	for _, name := range job.StateTables {
		t, err := kvstore.OpenOrCreate(e.store, name, kvstore.ConsistentWith(run.placement.Name()))
		if err != nil {
			return err
		}
		if err := requireCoPlaced(run.placement, t); err != nil {
			return err
		}
		run.stateTables = append(run.stateTables, t)
	}

	// Broadcast reference table.
	if job.ReferenceTable != "" {
		t, ok := e.store.LookupTable(job.ReferenceTable)
		if !ok {
			return fmt.Errorf("%w: reference table %q does not exist", ErrBadJob, job.ReferenceTable)
		}
		run.refTable = t
	}

	// Private transport table (sync path only, but cheap to create).
	if run.strategy.Sync {
		if run.transport, err = run.privateTable("transport", kvstore.ConsistentWith(run.placement.Name())); err != nil {
			return err
		}
	}

	// Completed-step table for fast recovery.
	if run.strategy.FastRecovery {
		run.metaTable, err = run.privateTable("meta", kvstore.ConsistentWith(run.placement.Name()))
	}
	return err
}

// placementTable picks the state table that places a job: the first existing
// partitioned one, else the first one still to be created. A ubiquitous
// table has no parts to place at, so a job whose state tables all exist
// ubiquitous (or that has none) gets "": a private placement table.
func placementTable(store kvstore.Store, names []string) string {
	missing := ""
	for _, name := range names {
		t, ok := store.LookupTable(name)
		if ok && !t.Ubiquitous() {
			return name
		}
		if !ok && missing == "" {
			missing = name
		}
	}
	return missing
}

// privateTable creates the run's table __ebsp.<job>.<run>.<suffix>, which
// cleanup drops.
func (run *jobRun) privateTable(suffix string, opts ...kvstore.TableOption) (kvstore.Table, error) {
	name := fmt.Sprintf("__ebsp.%s.%d.%s", run.job.Name, run.runID, suffix)
	t, err := run.engine.store.CreateTable(name, opts...)
	if err != nil {
		return nil, fmt.Errorf("ebsp: create %s table: %w", suffix, err)
	}
	run.privateTables = append(run.privateTables, name)
	return t, nil
}

// load runs the job's loaders and returns the collected initial condition.
// The states they put enter each state table through one agent per touched
// part (tableops.InParts), in PutState order within a part, so the last put
// of a key wins. The agents run at the placement table's parts, which a
// co-placed state table shares and from which a ubiquitous one is seen.
// Part views may keep the value itself, so what they get is a deep copy: the
// loader keeps ownership of its values. A retried table writes the same
// values again.
func (run *jobRun) load() (*LoadContext, error) {
	lc := &LoadContext{run: run, aggs: make(map[string]any)}
	for _, l := range run.job.Loaders {
		if err := l.Load(lc); err != nil {
			return nil, fmt.Errorf("ebsp: loader: %w", err)
		}
	}
	// Per state table: part -> the keys put there, and copies of their values.
	keys, vals := make([]map[int][]any, len(run.stateTables)), make([]map[int][]any, len(run.stateTables))
	for i := range keys {
		keys[i], vals[i] = map[int][]any{}, map[int][]any{}
	}
	for _, p := range lc.puts {
		if p.tab < 0 || p.tab >= len(run.stateTables) {
			return nil, fmt.Errorf("%w: loader PutState table index %d of %d",
				ErrBadJob, p.tab, len(run.stateTables))
		}
		v, err := codec.DeepCopy(p.value)
		if err != nil {
			return nil, fmt.Errorf("ebsp: loader state put: %w", err)
		}
		part := run.stateTables[p.tab].PartOf(p.key)
		keys[p.tab][part] = append(keys[p.tab][part], p.key)
		vals[p.tab][part] = append(vals[p.tab][part], v)
	}
	for i, t := range run.stateTables {
		if err := run.retry(-1, -1, func() error {
			return tableops.InParts(run.engine.store, run.placement.Name(), t.Name(), keys[i], func(pv kvstore.PartView, part int, ks []any) error {
				for j, k := range ks {
					if err := pv.Put(k, vals[i][part][j]); err != nil {
						return err
					}
				}
				return nil
			})
		}); err != nil {
			return nil, fmt.Errorf("ebsp: loader state put: %w", err)
		}
	}
	// Initial aggregator inputs are the step-1 readable results.
	for name, v := range lc.aggs {
		run.aggPrev[name] = v
	}
	return lc, nil
}

// export streams final state tables and cleans up.
func (run *jobRun) export() error {
	for name, exp := range run.job.Exporters {
		t, ok := run.engine.store.LookupTable(name)
		if !ok {
			return fmt.Errorf("%w: exporting missing table %q", ErrBadJob, name)
		}
		// Transient faults fire only at enumeration entry, before any pair is
		// visited, so retrying the whole enumeration never double-exports.
		if err := run.retry(-1, -1, func() error {
			return kvstore.EnumerateAll(t, func(k, v any) (bool, error) {
				return false, exp.Export(k, v)
			})
		}); err != nil {
			return fmt.Errorf("ebsp: export %q: %w", name, err)
		}
	}
	return nil
}

// cleanup drops the run's private tables.
func (run *jobRun) cleanup() {
	for _, name := range run.privateTables {
		_ = run.engine.store.DropTable(name)
	}
}

// partViews opens the per-part views of the state tables for an agent, as
// the state of the slot whose record is rec.
func (run *jobRun) partViews(sv kvstore.ShardView, rec *partStepResult) (*slotState, error) {
	st := &slotState{tabs: make([]kvAccess, len(run.stateTables)), rec: rec}
	for i, t := range run.stateTables {
		view, err := sv.View(t.Name())
		if err != nil {
			return nil, err
		}
		st.tabs[i] = view
	}
	return st, nil
}

// broadcastView opens the reference table locally for an agent (nil when the
// job has no reference table).
func (run *jobRun) broadcastView(sv kvstore.ShardView) (kvstore.PartView, error) {
	if run.refTable == nil {
		return nil, nil
	}
	return sv.View(run.refTable.Name())
}

// mqSystem returns the engine's mq system, creating a private one on demand.
// The lazy write is guarded by mqOnce: two no-sync jobs starting concurrently
// on one Engine must share a single system, per the concurrent-use contract.
func (e *Engine) mqSystem() mq.Queuing {
	e.mqOnce.Do(func() {
		if e.mqsys == nil {
			e.mqsys = mq.NewSystem(mq.WithMetrics(e.metrics))
		}
	})
	return e.mqsys
}
