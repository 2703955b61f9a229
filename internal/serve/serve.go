// Package serve is Ripple's long-lived job service: the "millions of users"
// front end the paper's architecture section gestures at. It exposes an
// HTTP/JSON API (POST /v1/jobs, GET /v1/jobs/{id}, .../result, .../events as
// SSE, DELETE to cancel) over the existing workload registry, multiplexing
// many submissions onto a pool of shared engines above one kvstore.Store —
// in-process or a part-server fleet, the SPI does not care.
//
// Admission control is three-layered: a worker pool bounds concurrent
// executions, a bounded FIFO queue absorbs bursts (submissions beyond it are
// rejected, not buffered without limit), and a per-tenant quota caps how many
// live jobs one API key may hold. Job records — spec, tenant, status, result
// — persist through the store SPI itself (a "__serve.jobs" table), so a
// daemon restart re-lists every job and resumes the ones that were running:
// checkpointed workloads continue from their snapshot via Engine.Resume, the
// rest re-run from their deterministic seed.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"ripple/internal/ebsp"
	"ripple/internal/kvstore"
	"ripple/internal/metrics"
	"ripple/internal/trace"
)

// Job statuses. A job moves queued → running → {done, failed, canceled};
// a daemon crash can leave a persisted record at "running", which recovery
// re-queues for resumption.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// Typed submission errors; the HTTP layer maps them to status codes.
var (
	ErrUnknownWorkload = errors.New("serve: unknown workload")
	ErrQuotaExceeded   = errors.New("serve: tenant quota exceeded")
	ErrQueueFull       = errors.New("serve: submission queue full")
	ErrUnknownJob      = errors.New("serve: unknown job")
	ErrNotFinished     = errors.New("serve: job not finished")
	ErrClosed          = errors.New("serve: service closed")
)

// jobsTable persists one JSON record per job through the store SPI.
const jobsTable = "__serve.jobs"

// JobRecord is one job's persisted state. It is both the durable record (as
// JSON in the jobs table) and the API representation.
type JobRecord struct {
	ID       string          `json:"id"`
	Tenant   string          `json:"tenant"`
	Workload string          `json:"workload"`
	Params   json.RawMessage `json:"params,omitempty"`
	Status   string          `json:"status"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	// Resumed marks a run continued after a daemon restart.
	Resumed bool `json:"resumed,omitempty"`
	// CancelRequested distinguishes a user cancel from a shutdown
	// interruption: only the former makes the terminal status "canceled".
	CancelRequested bool `json:"cancel_requested,omitempty"`
	// Unix-millisecond timestamps; zero when the phase has not happened.
	Submitted int64 `json:"submitted,omitempty"`
	Started   int64 `json:"started,omitempty"`
	Finished  int64 `json:"finished,omitempty"`
}

// Terminal reports whether the record's status is final.
func (r *JobRecord) Terminal() bool {
	return r.Status == StatusDone || r.Status == StatusFailed || r.Status == StatusCanceled
}

func (r *JobRecord) clone() *JobRecord {
	c := *r
	c.Params = append(json.RawMessage(nil), r.Params...)
	c.Result = append(json.RawMessage(nil), r.Result...)
	return &c
}

// Options configures a Service.
type Options struct {
	// Store backs both job execution and the service's own job records.
	Store kvstore.Store
	// MaxConcurrent bounds simultaneously executing jobs (default 2); each
	// execution slot owns one engine over the shared store.
	MaxConcurrent int
	// QueueDepth bounds the FIFO of admitted-but-not-yet-running jobs
	// (default 16); submissions beyond it are rejected with ErrQueueFull.
	QueueDepth int
	// TenantQuota caps one tenant's live (queued + running) jobs
	// (default 4); excess submissions are rejected with ErrQuotaExceeded.
	TenantQuota int
	// CheckpointEvery snapshots synchronized jobs every n steps (default 4),
	// which is what makes restart-resume and mid-run self-healing work.
	CheckpointEvery int
	// Metrics, Tracer, Logger are optional observability attachments shared
	// by every execution slot.
	Metrics *metrics.Collector
	Tracer  *trace.Tracer
	Logger  *slog.Logger
	// EngineOptions are appended to every slot engine's options.
	EngineOptions []ebsp.Option
}

func (o *Options) normalize() error {
	if o.Store == nil {
		return errors.New("serve: Options.Store is required")
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.TenantQuota <= 0 {
		o.TenantQuota = 4
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 4
	}
	if o.Logger == nil {
		o.Logger = slog.New(discardHandler{})
	}
	return nil
}

// discardHandler is a no-op slog handler (slog.DiscardHandler is newer than
// some toolchains this repo targets).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// Service is the job service: persistence, admission control, execution
// slots, and the event hub. Create with New, then Start; mount Handler on an
// HTTP server.
type Service struct {
	opts Options
	hub  *hub

	tab kvstore.Table // the jobs table

	mu      sync.Mutex
	jobs    map[string]*JobRecord
	cancels map[string]context.CancelFunc
	seq     int

	queue   chan string
	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	started bool
}

// New builds a Service over opts.Store. Call Start to load persisted jobs
// and begin executing.
func New(opts Options) (*Service, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	tab, err := kvstore.OpenOrCreate(opts.Store, jobsTable, kvstore.WithParts(1))
	if err != nil {
		return nil, fmt.Errorf("serve: open jobs table: %w", err)
	}
	ctx, stop := context.WithCancel(context.Background())
	return &Service{
		opts:    opts,
		hub:     newHub(),
		tab:     tab,
		jobs:    make(map[string]*JobRecord),
		cancels: make(map[string]context.CancelFunc),
		queue:   make(chan string, opts.QueueDepth),
		baseCtx: ctx,
		stop:    stop,
	}, nil
}

// Start loads persisted job records, re-queues interrupted work, and starts
// the execution slots. It is not idempotent; call once.
func (s *Service) Start() error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return errors.New("serve: already started")
	}
	s.started = true
	if err := s.recoverLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	s.mu.Unlock()

	for i := 0; i < s.opts.MaxConcurrent; i++ {
		slot := &slotObserver{hub: s.hub}
		engOpts := []ebsp.Option{
			ebsp.WithCheckpoints(s.opts.CheckpointEvery),
			ebsp.WithObserver(ebsp.StepObserverFunc(slot.onStep)),
			ebsp.WithProgressObserver(ebsp.ProgressObserverFunc(slot.onProgress), 256),
		}
		if s.opts.Metrics != nil {
			engOpts = append(engOpts, ebsp.WithMetrics(s.opts.Metrics))
		}
		if s.opts.Tracer != nil {
			engOpts = append(engOpts, ebsp.WithTracer(s.opts.Tracer))
		}
		engOpts = append(engOpts, s.opts.EngineOptions...)
		eng := ebsp.NewEngine(s.opts.Store, engOpts...)
		s.wg.Add(1)
		go s.worker(eng, engOpts, slot)
	}
	return nil
}

// recoverLocked re-lists persisted jobs after a restart: queued records go
// back on the queue in ID order; "running" records — interrupted mid-flight
// by the previous process's death — are re-queued for resumption.
func (s *Service) recoverLocked() error {
	var recs []*JobRecord
	err := kvstore.EnumerateAll(s.tab, func(_, value any) (bool, error) {
		raw, ok := value.(string)
		if !ok {
			return false, nil
		}
		var rec JobRecord
		if err := json.Unmarshal([]byte(raw), &rec); err != nil {
			s.opts.Logger.Warn("serve: undecodable job record dropped", "err", err)
			return false, nil
		}
		recs = append(recs, &rec)
		return false, nil
	})
	if err != nil {
		return fmt.Errorf("serve: list jobs: %w", err)
	}
	// IDs are j<seq>; recover the counter and replay in submission order.
	pending := make([]*JobRecord, 0, len(recs))
	for _, rec := range recs {
		var n int
		if _, err := fmt.Sscanf(rec.ID, "j%d", &n); err == nil && n > s.seq {
			s.seq = n
		}
		s.jobs[rec.ID] = rec
		if rec.Terminal() {
			continue
		}
		pending = append(pending, rec)
	}
	sortRecords(pending)
	for _, rec := range pending {
		if rec.Status == StatusRunning {
			// Interrupted mid-run: keep the status (the worker resumes it)
			// and mark the record so clients can see it was carried over.
			rec.Resumed = true
			s.persistLocked(rec)
			s.opts.Logger.Info("serve: recovering interrupted job", "job", rec.ID)
		}
		select {
		case s.queue <- rec.ID:
		default:
			rec.Status = StatusFailed
			rec.Error = "recovery overflowed the submission queue"
			rec.Finished = nowMillis()
			s.persistLocked(rec)
		}
	}
	return nil
}

// Close stops accepting work and interrupts running jobs at their next
// barrier. Interrupted jobs stay persisted as "running", so the next Start
// resumes them — Close is a restart-safe shutdown, not a cancellation.
func (s *Service) Close(ctx context.Context) error {
	s.stop()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
}

// Submit admits one job: quota check, durable record, FIFO enqueue.
func (s *Service) Submit(tenant, workload string, params json.RawMessage) (*JobRecord, error) {
	if _, ok := lookupRunner(workload); !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownWorkload, workload)
	}
	if tenant == "" {
		tenant = "anonymous"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.baseCtx.Err() != nil {
		return nil, ErrClosed
	}
	live := 0
	for _, rec := range s.jobs {
		if rec.Tenant == tenant && !rec.Terminal() {
			live++
		}
	}
	if live >= s.opts.TenantQuota {
		return nil, fmt.Errorf("%w: tenant %q already holds %d live jobs", ErrQuotaExceeded, tenant, live)
	}
	s.seq++
	rec := &JobRecord{
		ID:        fmt.Sprintf("j%d", s.seq),
		Tenant:    tenant,
		Workload:  workload,
		Params:    params,
		Status:    StatusQueued,
		Submitted: nowMillis(),
	}
	select {
	case s.queue <- rec.ID:
	default:
		s.seq--
		return nil, ErrQueueFull
	}
	s.jobs[rec.ID] = rec
	s.persistLocked(rec)
	s.publishStatusLocked(rec)
	return rec.clone(), nil
}

// Get returns one job's record.
func (s *Service) Get(id string) (*JobRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return rec.clone(), nil
}

// List returns every record, oldest first.
func (s *Service) List() []*JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*JobRecord, 0, len(s.jobs))
	for _, rec := range s.jobs {
		out = append(out, rec.clone())
	}
	sortRecords(out)
	return out
}

// Result returns a finished job's result document.
func (s *Service) Result(id string) (json.RawMessage, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	switch rec.Status {
	case StatusDone:
		return append(json.RawMessage(nil), rec.Result...), nil
	case StatusFailed:
		return nil, fmt.Errorf("serve: job %s failed: %s", id, rec.Error)
	default:
		return nil, fmt.Errorf("%w: job %s is %s", ErrNotFinished, id, rec.Status)
	}
}

// Cancel stops a job: a queued one is finalized immediately; a running one
// has its context canceled, interrupting the engine at the next barrier
// (sync) or quiescence check (no-sync).
func (s *Service) Cancel(id string) (*JobRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	switch rec.Status {
	case StatusQueued:
		rec.Status = StatusCanceled
		rec.CancelRequested = true
		rec.Finished = nowMillis()
		s.persistLocked(rec)
		s.publishStatusLocked(rec)
	case StatusRunning:
		rec.CancelRequested = true
		s.persistLocked(rec)
		if cancel := s.cancels[id]; cancel != nil {
			cancel()
		}
	}
	return rec.clone(), nil
}

// worker is one execution slot: it owns an engine over the shared store and
// drains the FIFO until shutdown.
func (s *Service) worker(eng *ebsp.Engine, engOpts []ebsp.Option, slot *slotObserver) {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case id := <-s.queue:
			s.runOne(id, eng, engOpts, slot)
		}
	}
}

// runOne executes one dequeued job on the slot's engine.
func (s *Service) runOne(id string, eng *ebsp.Engine, engOpts []ebsp.Option, slot *slotObserver) {
	s.mu.Lock()
	rec, ok := s.jobs[id]
	if !ok || rec.Terminal() {
		// Canceled while queued (or lost to a bad record): nothing to run.
		s.mu.Unlock()
		return
	}
	resume := rec.Status == StatusRunning // carried over from a dead process
	rec.Status = StatusRunning
	if rec.Started == 0 {
		rec.Started = nowMillis()
	}
	runner, _ := lookupRunner(rec.Workload)
	params := append(json.RawMessage(nil), rec.Params...)
	ctx, cancel := context.WithCancel(s.baseCtx)
	s.cancels[id] = cancel
	s.persistLocked(rec)
	s.publishStatusLocked(rec)
	s.mu.Unlock()

	slot.set(id)
	result, err := runner(RunEnv{
		Ctx:           ctx,
		Store:         s.opts.Store,
		Engine:        eng,
		EngineOptions: engOpts,
		JobID:         id,
		Prefix:        "serve." + id,
		Params:        params,
		Resume:        resume,
		Logger:        s.opts.Logger,
	})
	slot.clear()
	interrupted := ctx.Err() != nil // read before cancel() would mask it
	cancel()

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.cancels, id)
	switch {
	case err == nil:
		raw, merr := json.Marshal(result)
		if merr != nil {
			rec.Status = StatusFailed
			rec.Error = fmt.Sprintf("marshal result: %v", merr)
		} else {
			rec.Status = StatusDone
			rec.Result = raw
		}
	case errors.Is(err, context.Canceled) || interrupted:
		if !rec.CancelRequested && s.baseCtx.Err() != nil {
			// Shutdown, not a user cancel: leave the record "running" so the
			// next Start resumes it from its checkpoint (or reruns it).
			s.persistLocked(rec)
			return
		}
		rec.Status = StatusCanceled
	default:
		rec.Status = StatusFailed
		rec.Error = err.Error()
	}
	rec.Finished = nowMillis()
	s.persistLocked(rec)
	s.publishStatusLocked(rec)
	s.opts.Logger.Info("serve: job finished", "job", id, "status", rec.Status, "err", rec.Error)
}

// persistLocked writes the record through the store SPI and flushes, so the
// record survives even a SIGKILLed daemon. Persistence errors degrade to a
// log line: the in-memory state stays authoritative for this process; only
// restart recovery would see stale data.
func (s *Service) persistLocked(rec *JobRecord) {
	raw, err := json.Marshal(rec)
	if err == nil {
		err = s.tab.Put(rec.ID, string(raw))
	}
	if err == nil {
		err = kvstore.Flush(s.opts.Store)
	}
	if err != nil {
		s.opts.Logger.Error("serve: persist job record", "job", rec.ID, "err", err)
	}
}

func (s *Service) publishStatusLocked(rec *JobRecord) {
	data := map[string]any{"status": rec.Status}
	if rec.Error != "" {
		data["error"] = rec.Error
	}
	if rec.Resumed {
		data["resumed"] = true
	}
	s.hub.publish(rec.ID, "status", data)
}

// slotObserver routes a slot engine's step/progress notifications to the
// event hub under the job the slot is currently executing. One slot runs one
// job at a time, so no name parsing is needed.
type slotObserver struct {
	hub *hub
	mu  sync.Mutex
	job string
}

func (o *slotObserver) set(id string) { o.mu.Lock(); o.job = id; o.mu.Unlock() }
func (o *slotObserver) clear()        { o.set("") }

func (o *slotObserver) current() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.job
}

func (o *slotObserver) onStep(info ebsp.StepInfo) {
	id := o.current()
	if id == "" {
		return
	}
	o.hub.publish(id, "step", map[string]any{
		"job":         info.Job,
		"step":        info.Step,
		"emitted":     info.Emitted,
		"duration_us": info.Duration.Microseconds(),
	})
}

func (o *slotObserver) onProgress(info ebsp.ProgressInfo) {
	id := o.current()
	if id == "" {
		return
	}
	o.hub.publish(id, "progress", map[string]any{
		"job":       info.Job,
		"part":      info.Part,
		"delivered": info.Delivered,
		"sent":      info.Sent,
		"queued":    info.Queued,
		"quiescent": info.Quiescent,
	})
}

func nowMillis() int64 { return time.Now().UnixMilli() }

// sortRecords orders by numeric ID (j1, j2, ... — submission order).
func sortRecords(recs []*JobRecord) {
	num := func(id string) int {
		var n int
		_, _ = fmt.Sscanf(id, "j%d", &n)
		return n
	}
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && num(recs[j].ID) < num(recs[j-1].ID); j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}
