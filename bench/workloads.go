package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"ripple"
	"ripple/bench/spispan"
	"ripple/internal/diskstore"
	"ripple/internal/ebsp"
	"ripple/internal/gridstore"
	"ripple/internal/kvstore"
	"ripple/internal/matrix"
	"ripple/internal/memstore"
	"ripple/internal/mq"
	"ripple/internal/netstore"
	"ripple/internal/pagerank"
	"ripple/internal/serve"
	"ripple/internal/sssp"
	"ripple/internal/summa"
	"ripple/internal/trace"
	"ripple/internal/workload"
)

// workloads are the benchmark's six, each chosen to be dominated by one term
// of the BSP superstep cost w + h·g + L and by one layer of
// codec → mq → store SPI {mem, grid, LSM, net} → ebsp → serve.
var workloads = []*spec{
	pagerankWorkload("pagerank.mem",
		"h*g-bound: ~150k small messages per job cross emulated partitions, so codec, the memstore boundary and ebsp deliver/sort/combine do the work",
		13100, 434000, 36, openMemBed),
	pagerankWorkload("pagerank.lsm",
		"same job over an LSM diskstore whose working set is ~23x its memtable budget: SSTable reads, WAL, flush and compaction dominate",
		6600, 217000, 28, openLSMBed),
	pagerankWorkload("pagerank.net",
		"same job over three loopback part-servers with 2 replicas: netstore framing, RPC round-trips and client-driven replication dominate",
		3300, 108000, 26, openNetBed),
	{
		Name:       "sssp.incr.mem",
		Why:        "L-bound: each batch of 100 graph changes is a short EBSP job touching few components, so per-job and per-step fixed cost dominates",
		clients:    1,
		tailPct:    95,
		jobs:       2400,
		tracedJobs: 375,
		generate:   generateSSSP,
		open:       openSSSP,
	},
	{
		Name:       "summa.nosync.grid",
		Why:        "no-barrier execution over gridstore with 2ms latency: mq queue sets, termination detection and 80KB block messages; measures how well waits overlap",
		clients:    1,
		tailPct:    95,
		jobs:       380,
		tracedJobs: 60,
		generate:   generateSUMMA,
		open:       openSUMMA,
	},
	{
		Name:       "serve.http",
		Why:        "a milliseconds-long job submitted over HTTP by 2 clients: serve admission, job-record persistence, SSE and the diskstore fsync path are the whole cost",
		clients:    2,
		tailPct:    85,
		jobs:       100,
		tracedJobs: 20,
		generate:   func(seed int64, short bool) any { return serveInputs{seed: seed, short: short} },
		open:       openServe,
	},
}

func findWorkload(name string) *spec {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func (e *env) wrapStore(s kvstore.Store) kvstore.Store {
	if e.rec == nil {
		return s
	}
	return spispan.Wrap(s, e.rec)
}

func (e *env) wrapMQ(q mq.Queuing) mq.Queuing {
	if e.rec == nil {
		return q
	}
	return spispan.WrapMQ(q, e.rec)
}

// --- pagerank.{mem,lsm,net} ------------------------------------------------

const (
	pagerankParts      = 6
	pagerankIterations = 5
	pagerankTable      = "g"
	rankTolerance      = 1e-9
)

type pagerankInputs struct {
	g    *workload.DirectedGraph
	want []float64
}

// bed is the store side of a pagerank workload: fresh returns a store with
// no graph table, per job, and lets go of the one it returned before;
// engineOpts are what an engine over that store needs besides env's.
type bed interface {
	fresh() (kvstore.Store, error)
	engineOpts() []ebsp.Option
	close() error
}

func pagerankWorkload(name, why string, vertices, edges, jobs int, openBed func(*env) (bed, error)) *spec {
	return &spec{
		Name:       name,
		Why:        why,
		clients:    1,
		tailPct:    75,
		jobs:       jobs,
		tracedJobs: 10,
		generate: func(seed int64, short bool) any {
			v, ed := vertices, edges
			if short {
				v, ed = 300, 3000
			}
			g, err := workload.PowerLawDirected(workload.DeriveRand(seed, name), v, ed, 1.5)
			if err != nil {
				panic(err) // the sizes are constants: only a bug fails this
			}
			return pagerankInputs{g: g, want: pagerank.Reference(g, 0.85, pagerankIterations)}
		},
		open: func(in any, e *env) (instance, time.Duration, error) {
			t0 := time.Now()
			b, err := openBed(e)
			if err != nil {
				return nil, 0, err
			}
			inst := &pagerankInstance{in: in.(pagerankInputs), env: e, bed: b}
			// Warm-up: one whole job, load included, so set-up time sees
			// the input load the way every measured job pays it.
			if _, err := inst.job(0, -1); err != nil {
				_ = b.close()
				return nil, 0, err
			}
			return inst, time.Since(t0), nil
		},
	}
}

type pagerankInstance struct {
	in  pagerankInputs
	env *env
	bed bed
}

func (p *pagerankInstance) job(_, i int) (time.Duration, error) {
	store, err := p.bed.fresh()
	if err != nil {
		return 0, err
	}
	tab, err := pagerank.LoadGraph(store, pagerankTable, p.in.g, pagerankParts)
	if err != nil {
		return 0, err
	}
	engine := ebsp.NewEngine(p.env.wrapStore(store), append(p.bed.engineOpts(), p.env.engineOpts...)...)
	d, err := p.env.timed(i, func() error {
		_, err := pagerank.RunDirect(engine, pagerank.Config{GraphTable: pagerankTable, Iterations: pagerankIterations})
		return err
	})
	if err == nil {
		err = checkRanks(tab, p.in.want)
	}
	return d, err
}

func (p *pagerankInstance) close() error { return p.bed.close() }

func checkRanks(tab kvstore.Table, want []float64) error {
	got, err := pagerank.ReadRanks(tab)
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("ranks for %d vertices, want %d", len(got), len(want))
	}
	for v, w := range want {
		if math.Abs(got[v]-w) > rankTolerance {
			return fmt.Errorf("rank[%d] = %v, reference %v", v, got[v], w)
		}
	}
	return nil
}

// memBed: a new memstore per job.
type memBed struct {
	env  *env
	last kvstore.Store
}

func openMemBed(e *env) (bed, error) { return &memBed{env: e}, nil }

func (b *memBed) fresh() (kvstore.Store, error) {
	if err := b.close(); err != nil {
		return nil, err
	}
	b.last = memstore.New(memstore.WithParts(pagerankParts), memstore.WithMetrics(b.env.col))
	return b.last, nil
}

func (*memBed) engineOpts() []ebsp.Option { return nil }

func (b *memBed) close() error {
	if b.last == nil {
		return nil
	}
	s := b.last
	b.last = nil
	return s.Close()
}

// lsmBed: a new diskstore in a new directory per job, with a memtable
// budget far below the working set so state reads land in SSTables. The
// last job's store stays open until close, for the traced pass's rungs.
type lsmBed struct {
	env  *env
	dir  string
	last kvstore.Store
}

const lsmMemtableBudget = 256 << 10

func openLSMBed(e *env) (bed, error) { return &lsmBed{env: e}, nil }

func (b *lsmBed) fresh() (kvstore.Store, error) {
	if err := b.close(); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.env.tmp, "lsm-")
	if err != nil {
		return nil, err
	}
	s, err := diskstore.New(dir, diskstore.WithParts(pagerankParts),
		diskstore.WithMemtableBudget(lsmMemtableBudget), diskstore.WithMetrics(b.env.col))
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	b.dir, b.last = dir, s
	return s, nil
}

func (*lsmBed) engineOpts() []ebsp.Option { return nil }

func (b *lsmBed) close() error {
	if b.last == nil {
		return nil
	}
	s := b.last
	b.last = nil
	// Deleted now, not at exit: unlinking drops the store's dirty pages, and
	// their writeback would otherwise slow the jobs that follow.
	return errors.Join(s.Close(), os.RemoveAll(b.dir))
}

// netBed: three in-process part-servers on loopback and one client, kept
// for the instance's life; the graph table is dropped between jobs.
type netBed struct {
	env     *env
	servers []*netstore.Server
	served  sync.WaitGroup
	client  *netstore.Client
	// tracer is the client's and the engine's, traced pass only: the client
	// records an RPC span only under an engine run that has a trace ID.
	tracer *trace.Tracer
}

const netServers = 3

func openNetBed(e *env) (bed, error) {
	b := &netBed{env: e}
	var addrs []string
	for i := 0; i < netServers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, errors.Join(err, b.close())
		}
		var opts []netstore.ServerOption
		if e.rec != nil {
			opts = append(opts, netstore.WithServerTracer(trace.New(rpcTraceCapacity)))
		}
		srv := netstore.NewServer(opts...)
		b.servers = append(b.servers, srv)
		addrs = append(addrs, ln.Addr().String())
		b.served.Add(1)
		go func() {
			defer b.served.Done()
			_ = srv.Serve(ln) // returns when close() closes the server
		}()
	}
	opts := []netstore.Option{netstore.WithReplicas(2), netstore.WithMetrics(e.col)}
	if e.rec != nil {
		b.tracer = trace.New(rpcTraceCapacity)
		opts = append(opts, netstore.WithTracer(b.tracer))
	}
	c, err := netstore.Dial(addrs, opts...)
	if err != nil {
		return nil, errors.Join(err, b.close())
	}
	b.client = c
	return b, nil
}

func (b *netBed) fresh() (kvstore.Store, error) {
	// The engine leaves its last run's trace ID bound; unbind it so the
	// reload's RPCs are not recorded as the job's.
	b.client.BindTrace(0)
	if _, ok := b.client.LookupTable(pagerankTable); ok {
		if err := b.client.DropTable(pagerankTable); err != nil {
			return nil, err
		}
	}
	return b.client, nil
}

func (b *netBed) engineOpts() []ebsp.Option {
	opts := []ebsp.Option{ebsp.WithMQ(b.env.wrapMQ(b.client.Queuing()))}
	if b.tracer != nil {
		opts = append(opts, ebsp.WithTracer(b.tracer))
	}
	return opts
}

func (b *netBed) close() error {
	var err error
	if b.client != nil {
		err = b.client.Close()
	}
	for _, srv := range b.servers {
		err = errors.Join(err, srv.Close())
	}
	b.served.Wait()
	return err
}

// --- sssp.incr.mem -----------------------------------------------------------

const (
	ssspParts     = 6
	ssspBatchSize = 100
	ssspZipf      = 1.3
	ssspWarm      = 50
	ssspCheckEach = 250
)

type ssspInputs struct {
	g      *workload.UndirectedGraph
	source int
	seed   int64
}

func generateSSSP(seed int64, short bool) any {
	v, ed := 5000, 90000
	if short {
		v, ed = 300, 1500
	}
	g, err := workload.PowerLawUndirected(workload.DeriveRand(seed, "sssp.graph"), v, ed, ssspZipf)
	if err != nil {
		panic(err) // the sizes are constants: only a bug fails this
	}
	// Source: the best-connected vertex. Vertex numbers are a random
	// permutation, so a fixed number is a vertex of another kind for every
	// seed — isolated, ordinary, hub — and the cost of a batch follows it
	// (3.6-5.6 ms over eight seeds); the hub is the same kind every time.
	source := 0
	for u := range g.Adj {
		if d := len(g.Adj[u]); d > len(g.Adj[source]) {
			source = u
		}
	}
	return ssspInputs{g: g, source: source, seed: seed}
}

type ssspInstance struct {
	env    *env
	store  kvstore.Store
	drv    *sssp.Selective
	mirror *workload.UndirectedGraph // the benchmark's own copy, for the reference
	source int
	next   func() []workload.Change
	done   int
}

func openSSSP(in any, e *env) (instance, time.Duration, error) {
	inputs := in.(ssspInputs)
	mirror := workload.NewUndirected(inputs.g.NumVertices)
	for u, adj := range inputs.g.Adj {
		for v := range adj {
			mirror.Adj[u][v] = struct{}{}
		}
	}
	// One change stream per instance, never recycled: batch k is the same
	// for a seed whichever instance draws it.
	rng := workload.DeriveRand(inputs.seed, "sssp.changes")
	s := &ssspInstance{env: e, mirror: mirror, source: inputs.source}
	s.next = func() []workload.Change {
		return workload.ChangeBatch(rng, mirror.NumVertices, ssspBatchSize, ssspZipf, 0.5)
	}

	t0 := time.Now()
	s.store = memstore.New(memstore.WithParts(ssspParts), memstore.WithMetrics(e.col))
	s.drv = sssp.NewSelective(ebsp.NewEngine(e.wrapStore(s.store), e.engineOpts...), "sel", inputs.source, ssspParts)
	if err := s.drv.Init(inputs.g); err != nil {
		return nil, 0, errors.Join(err, s.store.Close())
	}
	for k := 0; k < ssspWarm; k++ {
		if _, err := s.job(0, -1); err != nil {
			return nil, 0, errors.Join(err, s.store.Close())
		}
	}
	return s, time.Since(t0), nil
}

func (s *ssspInstance) job(_, i int) (time.Duration, error) {
	batch := s.next()
	for _, c := range batch {
		s.mirror.Apply(c)
	}
	d, err := s.env.timed(i, func() error {
		_, err := s.drv.ApplyBatch(batch)
		return err
	})
	s.done++
	if err == nil && s.done%ssspCheckEach == 0 {
		err = s.check()
	}
	return d, err
}

// check compares every distance with a breadth-first search of the mirror.
func (s *ssspInstance) check() error {
	got, err := s.drv.Distances()
	if err != nil {
		return err
	}
	want := sssp.ReferenceDistances(s.mirror, s.source)
	if len(got) != len(want) {
		return fmt.Errorf("distances for %d vertices, want %d", len(got), len(want))
	}
	for v, w := range want {
		if got[v] != w {
			return fmt.Errorf("after %d batches: dist[%d] = %d, reference %d", s.done, v, got[v], w)
		}
	}
	return nil
}

func (s *ssspInstance) close() error {
	return errors.Join(s.check(), s.store.Close())
}

// --- summa.nosync.grid -------------------------------------------------------

const (
	summaParts   = 10
	summaLatency = 2 * time.Millisecond
	summaWarm    = 5
)

type summaInputs struct {
	a, b, want matrix.Dense
}

func generateSUMMA(seed int64, short bool) any {
	n := 300
	if short {
		n = 60
	}
	rng := workload.DeriveRand(seed, "summa")
	a, b := matrix.Random(rng, n, n), matrix.Random(rng, n, n)
	want, err := a.Mul(b)
	if err != nil {
		panic(err) // square matrices of one size: only a bug fails this
	}
	return summaInputs{a: a, b: b, want: want}
}

type summaInstance struct {
	in  summaInputs
	env *env
}

func openSUMMA(in any, e *env) (instance, time.Duration, error) {
	s := &summaInstance{in: in.(summaInputs), env: e}
	t0 := time.Now()
	for k := 0; k < summaWarm; k++ {
		if _, err := s.job(0, -1); err != nil {
			return nil, 0, err
		}
	}
	return s, time.Since(t0), nil
}

func (s *summaInstance) job(_, i int) (time.Duration, error) {
	store := gridstore.New(gridstore.WithParts(summaParts), gridstore.WithLatency(summaLatency),
		gridstore.WithMetrics(s.env.col))
	cfg := summa.Config{
		Grid:          3,
		Synchronized:  false,
		MQ:            s.env.wrapMQ(mq.NewSystem(mq.WithLatency(summaLatency), mq.WithMetrics(s.env.col))),
		EngineOptions: s.env.engineOpts,
	}
	var out *summa.Outcome
	d, err := s.env.timed(i, func() error {
		var err error
		out, err = summa.Multiply(s.env.wrapStore(store), cfg, s.in.a, s.in.b)
		return err
	})
	if err == nil && !out.C.EqualWithin(s.in.want, rankTolerance) {
		err = errors.New("product differs from a.Mul(b)")
	}
	return d, errors.Join(err, store.Close())
}

func (*summaInstance) close() error { return nil }

// --- serve.http --------------------------------------------------------------

const (
	serveVertices = 300
	serveEdges    = 3000
	serveWarm     = 4
)

type serveInputs struct {
	seed  int64
	short bool
}

// servedJob is what a client keeps of a finished job, for the checks that
// run after the timed region.
type servedJob struct {
	id     string
	seed   int64
	result []byte
	submit time.Duration // POST latency
	total  time.Duration
}

type serveInstance struct {
	in    serveInputs
	env   *env
	dir   string
	store kvstore.Store
	svc   *serve.Service
	http  *ripple.HTTPServer
	base  string
	// One HTTP client per closed-loop client, each with its own connections.
	clients []*http.Client

	mu       sync.Mutex
	jobs     []servedJob // measured jobs, not the warm-up's
	rejected int         // submissions answered 429
}

func openServe(in any, e *env) (instance, time.Duration, error) {
	s := &serveInstance{in: in.(serveInputs), env: e}
	for c := 0; c < 2; c++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{}})
	}
	t0 := time.Now()
	if err := s.start(); err != nil {
		return nil, 0, errors.Join(err, s.stop())
	}
	// Warm-up through the same path as measured jobs, both clients at once.
	var wg sync.WaitGroup
	errs := make([]error, len(s.clients))
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < serveWarm/len(s.clients); k++ {
				if _, err := s.job(c, -1-c-k*len(s.clients)); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, 0, errors.Join(err, s.stop())
	}
	return s, time.Since(t0), nil
}

func (s *serveInstance) start() error {
	dir, err := os.MkdirTemp(s.env.tmp, "serve-")
	if err != nil {
		return err
	}
	s.dir = dir
	s.store, err = diskstore.New(dir, diskstore.WithMetrics(s.env.col))
	if err != nil {
		return err
	}
	s.svc, err = serve.New(serve.Options{
		Store:         s.env.wrapStore(s.store),
		MaxConcurrent: 2,
		QueueDepth:    16,
		TenantQuota:   8,
		Metrics:       s.env.col,
		EngineOptions: s.env.engineOpts,
	})
	if err != nil {
		return err
	}
	if err := s.svc.Start(); err != nil {
		return err
	}
	s.http, err = ripple.ServeHTTP("127.0.0.1:0", s.svc.Handler())
	if err != nil {
		return err
	}
	s.base = "http://" + s.http.Addr()
	return nil
}

func (s *serveInstance) stop() error {
	var err error
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	if s.http != nil {
		err = s.http.Shutdown(context.Background())
	}
	if s.svc != nil {
		err = errors.Join(err, s.svc.Close(context.Background()))
	}
	if s.store != nil {
		err = errors.Join(err, s.store.Close())
	}
	if s.dir != "" {
		err = errors.Join(err, os.RemoveAll(s.dir))
	}
	return err
}

// job submits one pagerank job, waits for its terminal event on the SSE
// stream, and fetches the result. Its latency is the whole exchange.
func (s *serveInstance) job(client, i int) (time.Duration, error) {
	hc := s.clients[client]
	// The generator's seed for this job; the program sees only the params.
	seed := s.in.seed*1_000_003 + int64(i)
	body := fmt.Sprintf(`{"workload":"pagerank","params":{"vertices":%d,"edges":%d,"iterations":%d,"seed":%d}}`,
		serveVertices, serveEdges, pagerankIterations, seed)

	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, s.base+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-API-Key", "bench")
	var rec serve.JobRecord
	if status, err := doJSON(hc, req, http.StatusAccepted, &rec); err != nil {
		if status == http.StatusTooManyRequests {
			s.mu.Lock()
			s.rejected++
			s.mu.Unlock()
		}
		return 0, fmt.Errorf("submit: %w", err)
	}
	submit := time.Since(t0)
	status, err := awaitTerminal(hc, s.base+"/v1/jobs/"+rec.ID+"/events")
	if err != nil {
		return 0, fmt.Errorf("events of %s: %w", rec.ID, err)
	}
	if status != serve.StatusDone {
		return 0, fmt.Errorf("job %s ended %s", rec.ID, status)
	}
	resp, err := hc.Get(s.base + "/v1/jobs/" + rec.ID + "/result")
	if err != nil {
		return 0, err
	}
	result, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // only read
	if err != nil || resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("result of %s: status %d, %v", rec.ID, resp.StatusCode, err)
	}
	total := time.Since(t0)

	j := servedJob{id: rec.ID, seed: seed, result: result, submit: submit, total: total}
	if i < 0 {
		return total, checkServed(j) // warm-up: checked now, not kept
	}
	s.mu.Lock()
	s.jobs = append(s.jobs, j)
	s.mu.Unlock()
	return total, nil
}

// doJSON sends req and decodes a response of the wanted status into out; it
// returns the status it saw.
func doJSON(hc *http.Client, req *http.Request, wantStatus int, out any) (int, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() { _ = resp.Body.Close() }() // only read
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != wantStatus {
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return resp.StatusCode, json.Unmarshal(b, out)
}

// serveMetrics derives the serve layer's per-job numbers from what the
// clients timed and the job records' own timestamps (milliseconds).
func (s *serveInstance) serveMetrics(set func(string, float64)) {
	set("rejected", float64(s.rejected))
	var submit, wait, overhead, n float64
	for _, j := range s.jobs {
		rec, err := s.svc.Get(j.id)
		if err != nil {
			continue
		}
		n++
		submit += ms(j.submit)
		wait += float64(rec.Started - rec.Submitted)
		overhead += ms(j.total) - float64(rec.Finished-rec.Started)
	}
	if n == 0 {
		return
	}
	set("http_submit_ms", submit/n)
	set("queue_wait_ms", wait/n)
	set("serve_overhead_ms", overhead/n)
}

// awaitTerminal reads the job's SSE stream until a status event announces a
// final status, and returns it.
func awaitTerminal(hc *http.Client, url string) (string, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return "", err
	}
	defer func() { _ = resp.Body.Close() }() // only read
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", err
		}
		if ev.Type != "status" {
			continue
		}
		switch st, _ := ev.Data["status"].(string); st {
		case serve.StatusDone, serve.StatusFailed, serve.StatusCanceled:
			// The server ends the stream after the terminal event; drain
			// it so the connection can be reused.
			_, _ = io.Copy(io.Discard, resp.Body)
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("stream ended before a terminal status")
}

// close checks every job's result against the reference computed from the
// same registry params, then shuts the daemon down.
func (s *serveInstance) close() error {
	var errs []error
	for _, j := range s.jobs {
		if err := checkServed(j); err != nil {
			errs = append(errs, err)
			if len(errs) == 5 {
				break
			}
		}
	}
	return errors.Join(append(errs, s.stop())...)
}

func checkServed(j servedJob) error {
	var doc struct {
		Ranks map[string]float64 `json:"ranks"`
		Steps int                `json:"steps"`
	}
	if err := json.Unmarshal(j.result, &doc); err != nil {
		return fmt.Errorf("job %s: result: %w", j.id, err)
	}
	// The registry's graph: its documented defaults (zipf 2.0, damping
	// 0.85) and a generator stream named after the job ID.
	g, err := workload.PowerLawDirected(workload.DeriveRand(j.seed, "pagerank."+j.id), serveVertices, serveEdges, 2.0)
	if err != nil {
		return err
	}
	want := pagerank.Reference(g, 0.85, pagerankIterations)
	if len(doc.Ranks) != len(want) {
		return fmt.Errorf("job %s: ranks for %d vertices, want %d", j.id, len(doc.Ranks), len(want))
	}
	for v, w := range want {
		// The service rounds ranks to 1e-9.
		if got := doc.Ranks[strconv.Itoa(v)]; math.Abs(got-w) > 2*rankTolerance {
			return fmt.Errorf("job %s: rank[%d] = %v, reference %v", j.id, v, got, w)
		}
	}
	return nil
}
