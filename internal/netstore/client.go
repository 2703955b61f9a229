package netstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"ripple/internal/kvstore"
	"ripple/internal/metrics"
	"ripple/internal/mq"
	"ripple/internal/trace"
)

// Client mounts a fleet of part-servers behind the kvstore.Store SPI (plus
// the Healer, FailureSensor, and TraceBinder capabilities) and, via
// Queuing(), the mq SPI. One Client is one analytics process's window onto
// the fleet: placement is computed locally by rendezvous hashing, reads go
// to a part's primary, writes are replicated client-side to the part's
// replica set, and a heartbeat loop drives the failure detector that feeds
// the engine's heal/checkpoint-restore path.
type Client struct {
	addrs        []string
	conns        []*serverConn
	replicas     int
	reqTimeout   time.Duration
	hbEvery      time.Duration
	hbMisses     int
	retries      int
	backoffSeed  int64
	inj          WireInjector
	met          *metrics.Collector
	tr           *trace.Tracer
	defaultParts int

	nextID  atomic.Uint64
	ambient atomic.Uint64 // trace ID bound by the engine; 0 = untraced
	spanCtr atomic.Uint64

	failovers atomic.Int64

	started time.Time // span-clock base when no tracer is attached

	// Per-server clock-offset estimators, fed by heartbeat RTT midpoints.
	clkMu sync.Mutex
	clks  []clockEst

	mu     sync.Mutex
	states []serverState
	tables map[string]tableMeta
	order  []string
	qsets  map[string]int // queue-set name -> queue count, for heal re-ensure
	closed bool

	// healMu serializes Heal so concurrent recovery attempts do not copy
	// parts over each other.
	healMu sync.Mutex

	// createMu serializes CreateTable from the name check through the
	// broadcast to the registration, so two of this client's callers never
	// each win the name on a different server.
	createMu sync.Mutex

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// serverState is the failure detector's view of one server.
type serverState struct {
	up     bool
	cold   bool // rejoined after being down/restarted: readable only after Heal
	everUp bool
	bootID int64
	misses int
}

// tableMeta is the client-side registry entry for one table.
type tableMeta struct {
	parts   int
	ubiq    bool
	ordered bool
}

// Option configures a Client.
type Option func(*Client)

// WithReplicas sets the replication factor (clamped to the server count).
func WithReplicas(n int) Option { return func(c *Client) { c.replicas = n } }

// WithRequestTimeout sets the per-request deadline.
func WithRequestTimeout(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.reqTimeout = d
		}
	}
}

// WithHeartbeat sets the failure detector's cadence: a ping to every server
// each `every`, a server declared down after `misses` consecutive failures
// (heartbeat or data).
func WithHeartbeat(every time.Duration, misses int) Option {
	return func(c *Client) {
		if every > 0 {
			c.hbEvery = every
		}
		if misses > 0 {
			c.hbMisses = misses
		}
	}
}

// WithRetries bounds transport-level retries per operation (on top of the
// engine's own retry layer).
func WithRetries(n int) Option {
	return func(c *Client) {
		if n >= 0 {
			c.retries = n
		}
	}
}

// WithBackoffSeed seeds the deterministic retry-backoff jitter, mirroring
// the engine's seeded jitter so distributed-run latencies replay.
func WithBackoffSeed(seed int64) Option { return func(c *Client) { c.backoffSeed = seed } }

// WithWireInjector installs a wire-level fault injector (see
// internal/chaos for the deterministic seeded one).
func WithWireInjector(inj WireInjector) Option { return func(c *Client) { c.inj = inj } }

// WithMetrics attaches a metrics collector (RPC counters and per-endpoint
// latency histograms).
func WithMetrics(m *metrics.Collector) Option { return func(c *Client) { c.met = m } }

// WithTracer attaches a tracer; RPC spans are recorded when the engine has
// bound a causal trace via BindTrace.
func WithTracer(t *trace.Tracer) Option { return func(c *Client) { c.tr = t } }

// WithDefaultParts sets the part count for tables that do not specify one.
func WithDefaultParts(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.defaultParts = n
		}
	}
}

// Dial connects to the part-servers at addrs. Every server must answer an
// initial ping — a fleet that starts degraded has no authoritative data to
// heal from.
func Dial(addrs []string, opts ...Option) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("netstore: no servers")
	}
	c := &Client{
		addrs:        addrs,
		started:      time.Now(),
		replicas:     2,
		reqTimeout:   2 * time.Second,
		hbEvery:      100 * time.Millisecond,
		hbMisses:     3,
		retries:      4,
		defaultParts: 8,
		tables:       make(map[string]tableMeta),
		qsets:        make(map[string]int),
		done:         make(chan struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	if c.replicas < 1 {
		c.replicas = 1
	}
	if c.replicas > len(addrs) {
		c.replicas = len(addrs)
	}
	c.conns = make([]*serverConn, len(addrs))
	c.states = make([]serverState, len(addrs))
	for i, addr := range addrs {
		c.conns[i] = newServerConn(addr, i, c.inj)
	}
	for i := range c.conns {
		bootID, err := c.ping(i)
		if err != nil {
			c.shutdown()
			return nil, fmt.Errorf("netstore: server %d (%s) unreachable: %w", i, addrs[i], err)
		}
		c.states[i] = serverState{up: true, everUp: true, bootID: bootID}
		c.met.ServerUp(i).Set(1)
	}
	c.wg.Add(1)
	go c.heartbeats()
	return c, nil
}

// ping checks one server's liveness and returns its boot identity. One-way
// partition windows starve pings without advancing the injector's data-frame
// counters. A successful round-trip also feeds the per-server RTT histogram
// and — the response carries the server's span-clock now — the NTP-style
// clock-offset estimator: the server's clock is read at roughly the RTT
// midpoint, so clientMid − serverNow estimates the offset to within rtt/2.
func (c *Client) ping(server int) (int64, error) {
	if c.inj != nil && c.inj.PingBlocked(server, true) {
		return 0, fmt.Errorf("%w: ping partitioned to server", errTimeout)
	}
	t0 := time.Now()
	resp, err := c.conns[server].call(frame{ID: c.nextID.Add(1), Op: opPing}, c.reqTimeout)
	rtt := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if c.inj != nil && c.inj.PingBlocked(server, false) {
		return 0, fmt.Errorf("%w: ping partitioned from server", errTimeout)
	}
	if resp.Code != errNone {
		return 0, errFromCode(resp.Code, resp.errText())
	}
	c.met.HeartbeatRTT(server).ObserveDuration(rtt)
	if len(resp.Val) == 8 {
		serverNow := int64(binary.BigEndian.Uint64(resp.Val))
		clientMid := int64(t0.Add(rtt / 2).Sub(c.clockBase()))
		c.noteClockSample(server, clientMid-serverNow, int64(rtt))
	}
	return resp.Aux, nil
}

// heartbeats is the failure detector: ping every server each period, mark
// down after hbMisses consecutive misses, mark rejoining servers cold until
// healed.
func (c *Client) heartbeats() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.hbEvery)
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
			for i := range c.conns {
				bootID, err := c.ping(i)
				c.noteHeartbeat(i, bootID, err)
			}
		}
	}
}

func (c *Client) noteHeartbeat(server int, bootID int64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &c.states[server]
	if err != nil {
		st.misses++
		if st.up && st.misses >= c.hbMisses {
			st.up = false
			c.met.ServerUp(server).Set(0)
			c.bumpFailoverLocked()
		}
		return
	}
	st.misses = 0
	c.met.ServerUp(server).Set(1)
	if !st.up {
		// Back from the dead: usable for writes immediately, but cold (its
		// data is stale or gone) until the engine heals. Sensed as a
		// failover so the recovery path runs.
		st.up = true
		if st.everUp {
			st.cold = true
		}
		st.everUp = true
		st.bootID = bootID
		c.bumpFailoverLocked()
		return
	}
	if st.bootID != bootID {
		// The process restarted between two successful pings — a crash the
		// miss counter was too slow to see. Boot identity catches it.
		st.bootID = bootID
		st.cold = true
		c.bumpFailoverLocked()
	}
}

func (c *Client) bumpFailoverLocked() {
	c.failovers.Add(1)
	c.met.AddFailovers(1)
}

// dataMissFloor floors the consecutive-miss threshold for down-marking a
// server from data-call failures. Data frames vastly outnumber heartbeats,
// so at the heartbeat threshold a fraction-of-a-percent frame-loss rate
// would flap the detector; a genuinely dead or partitioned server fails
// every call and still trips the floor within milliseconds of traffic.
const dataMissFloor = 8

// noteFailure counts a data-call transport failure against the server.
func (c *Client) noteFailure(server int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &c.states[server]
	st.misses++
	th := c.hbMisses
	if th < dataMissFloor {
		th = dataMissFloor
	}
	if st.up && st.misses >= th {
		st.up = false
		c.met.ServerUp(server).Set(0)
		c.bumpFailoverLocked()
	}
}

func (c *Client) noteSuccess(server int) {
	c.mu.Lock()
	c.states[server].misses = 0
	c.mu.Unlock()
}

// isTransport reports whether err is a transport failure (retry/fail over)
// as opposed to a server verdict (authoritative).
func isTransport(err error) bool {
	return errors.Is(err, errConnBroken) || errors.Is(err, errTimeout)
}

// rpc performs one round-trip to one server: frame ID assignment, causal
// trace stamping, latency metrics, failure-detector bookkeeping, and
// server-verdict decoding. No retries here — callOp owns the retry policy.
func (c *Client) rpc(server int, req frame, attempt int) (frame, error) {
	return c.rpcT(server, req, attempt, c.reqTimeout)
}

// rpcT is rpc with an explicit deadline, for long-poll reads whose server
// side legitimately holds the request.
func (c *Client) rpcT(server int, req frame, attempt int, timeout time.Duration) (frame, error) {
	req.ID = c.nextID.Add(1)
	tr := c.ambient.Load()
	if tr != 0 {
		req.Trace = tr
		req.Span = splitmix64(tr ^ splitmix64(c.spanCtr.Add(1)))
	}
	start := time.Now()
	resp, err := c.conns[server].call(req, timeout)
	dur := time.Since(start)
	c.met.Endpoint(opName(req.Op)).ObserveDuration(dur)
	c.met.AddRPCCalls(1)
	if tr != 0 && c.tr != nil {
		c.tr.RecordSpan(trace.Span{
			Kind: trace.KindRPC, Job: fmt.Sprintf("s%d/%s", server, opName(req.Op)),
			Part: req.Part, N: int64(attempt), Dur: dur, Trace: tr, Span: req.Span,
		})
	}
	if err == nil && (resp.Code == errCodeClosed || resp.Code == errCodeMQClosed) {
		// "I am closing" is a farewell, not a verdict about the data: the
		// server is on its way down, so the call is retried and failed over
		// like any other lost frame. Only this client's own closed flag is
		// authoritative for ErrClosed.
		err = fmt.Errorf("%w: server %d is closing: %s", errConnBroken, server, resp.errText())
	}
	if err != nil {
		c.noteFailure(server)
		return frame{}, err
	}
	c.noteSuccess(server)
	if resp.Code != errNone {
		return resp, errFromCode(resp.Code, resp.errText())
	}
	return resp, nil
}

// primaryOf returns the replica set's effective primary: the first member
// that is up and warm.
func (c *Client) primaryOf(rs []int) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range rs {
		if c.states[s].up && !c.states[s].cold {
			return s, true
		}
	}
	return 0, false
}

func (c *Client) isUp(server int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.states[server].up
}

// replicaSetFor resolves a part's replica set; ubiquitous tables live on
// every server.
func (c *Client) replicaSetFor(part int, ubiq bool) []int {
	if ubiq {
		all := make([]int, len(c.conns))
		for i := range all {
			all[i] = i
		}
		return all
	}
	return replicaSet(part, len(c.conns), c.replicas)
}

// netBackoff is the transport retry's deterministic jittered backoff: the
// engine's curve (100µs doubling, capped) scaled by a seeded jitter in
// [0.5, 1.5), so distributed-run retry timing replays under a fixed seed.
func (c *Client) netBackoff(op uint8, part, attempt int) time.Duration {
	shift := attempt
	if shift > 6 {
		shift = 6
	}
	base := time.Duration(100<<uint(shift)) * time.Microsecond
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(c.backoffSeed))
	h.Write(b[:])
	h.Write([]byte{op})
	binary.LittleEndian.PutUint64(b[:], uint64(int64(part)))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(int64(attempt)))
	h.Write(b[:])
	j := float64(splitmix64(h.Sum64())>>11) / float64(1<<53)
	return time.Duration(float64(base) * (0.5 + j))
}

// callOp runs one part-targeted operation against its replica set: bounded
// retries with seeded jittered backoff, failover re-evaluated on every
// attempt, and (for writes) client-driven replication to the rest of the
// set. A server's verdict is authoritative and returned as-is; transport
// exhaustion surfaces as kvstore.ErrTransient so the engine's own retry and
// recovery layers take over.
func (c *Client) callOp(rs []int, req frame, write bool) (frame, error) {
	return c.callOpT(rs, req, write, c.reqTimeout)
}

func (c *Client) callOpT(rs []int, req frame, write bool, timeout time.Duration) (frame, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return frame{}, kvstore.ErrClosed
	}
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			c.met.AddRPCRetries(1)
			time.Sleep(c.netBackoff(req.Op, req.Part, attempt))
		}
		primary, ok := c.primaryOf(rs)
		if !ok {
			return frame{}, fmt.Errorf("netstore: no live replica for %s part %d: %w",
				req.Name, req.Part, kvstore.ErrShardFailed)
		}
		resp, err := c.rpcT(primary, req, attempt, timeout)
		if err == nil {
			if write {
				c.replicate(rs, primary, req)
			}
			return resp, nil
		}
		if !isTransport(err) {
			return resp, err
		}
		lastErr = err
	}
	return frame{}, fmt.Errorf("netstore: %s %s part %d: %w: %v",
		opName(req.Op), req.Name, req.Part, kvstore.ErrTransient, lastErr)
}

// replicate applies a committed write to the replica set's other live
// members. Replication to an up member retries transport failures — a
// secondary that silently missed writes would serve them stale after a
// primary failover, and a checkpoint restored from it would be torn. Only a
// member the failure detector has given up on may miss writes; it rejoins
// cold and Heal re-seeds it.
func (c *Client) replicate(rs []int, primary int, req frame) {
	for _, s := range rs {
		if s == primary || !c.isUp(s) {
			continue
		}
		_, _ = c.pinnedRPC(s, req)
	}
}

// broadcast sends a request to every live server, returning the first
// server verdict error. Transport failures are tolerated (the server is on
// its way to down; Heal re-ensures DDL when it returns).
func (c *Client) broadcast(req frame) error {
	var verdict error
	okCount := 0
	for s := range c.conns {
		if !c.isUp(s) {
			continue
		}
		_, err := c.rpc(s, req, 0)
		switch {
		case err == nil:
			okCount++
		case !isTransport(err) && verdict == nil:
			verdict = err
		}
	}
	if verdict != nil {
		return verdict
	}
	if okCount == 0 {
		return fmt.Errorf("netstore: %s %s: no server reachable: %w",
			opName(req.Op), req.Name, kvstore.ErrTransient)
	}
	return nil
}

// --- kvstore.Store ---

var (
	_ kvstore.Store         = (*Client)(nil)
	_ kvstore.Healer        = (*Client)(nil)
	_ kvstore.FailureSensor = (*Client)(nil)
	_ kvstore.TraceBinder   = (*Client)(nil)
)

// Name implements kvstore.Store.
func (c *Client) Name() string { return "netstore" }

// DefaultParts implements kvstore.Store.
func (c *Client) DefaultParts() int { return c.defaultParts }

// Servers reports the fleet size.
func (c *Client) Servers() int { return len(c.conns) }

// Replicas reports the effective replication factor.
func (c *Client) Replicas() int { return c.replicas }

// CreateTable implements kvstore.Store. Of this client's callers racing on
// one name exactly one wins; two clients racing on one name can both get
// ErrTableExists, each having won the name on a different server.
func (c *Client) CreateTable(name string, opts ...kvstore.TableOption) (kvstore.Table, error) {
	cfg := kvstore.ApplyOptions(c.defaultParts, opts)
	c.createMu.Lock()
	defer c.createMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, kvstore.ErrClosed
	}
	if _, ok := c.tables[name]; ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", kvstore.ErrTableExists, name)
	}
	if cfg.ConsistentWith != "" {
		base, ok := c.tables[cfg.ConsistentWith]
		if !ok {
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: consistent-with %q", kvstore.ErrNoTable, cfg.ConsistentWith)
		}
		// Placement is a pure function of (part, servers), so matching the
		// part count is all consistent partitioning requires.
		cfg.Parts = base.parts
	}
	c.mu.Unlock()

	req := frame{Op: opCreateTable, Name: name, Part: cfg.Parts, Flag: cfg.Ubiquitous}
	if cfg.Ordered {
		req.Aux = 1
	}
	if err := c.broadcast(req); err != nil {
		return nil, err
	}
	meta := tableMeta{parts: cfg.Parts, ubiq: cfg.Ubiquitous, ordered: cfg.Ordered}
	c.mu.Lock()
	if _, dup := c.tables[name]; !dup { // a concurrent LookupTable cached it
		c.tables[name] = meta
		c.order = append(c.order, name)
	}
	c.mu.Unlock()
	return &netTable{c: c, name: name, meta: meta}, nil
}

// LookupTable implements kvstore.Store. Tables created by other clients of
// the same fleet resolve through the servers and are cached.
func (c *Client) LookupTable(name string) (kvstore.Table, bool) {
	c.mu.Lock()
	meta, ok := c.tables[name]
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, false
	}
	if ok {
		return &netTable{c: c, name: name, meta: meta}, true
	}
	for s := range c.conns {
		if !c.isUp(s) {
			continue
		}
		resp, err := c.rpc(s, frame{Op: opLookupTable, Name: name}, 0)
		if err != nil {
			continue
		}
		if !resp.Flag {
			return nil, false
		}
		meta = tableMeta{parts: resp.Part, ubiq: resp.Aux&2 != 0, ordered: resp.Aux&1 != 0}
		c.mu.Lock()
		if _, dup := c.tables[name]; !dup {
			c.tables[name] = meta
			c.order = append(c.order, name)
		}
		c.mu.Unlock()
		return &netTable{c: c, name: name, meta: meta}, true
	}
	return nil, false
}

// DropTable implements kvstore.Store.
func (c *Client) DropTable(name string) error {
	c.mu.Lock()
	_, known := c.tables[name]
	delete(c.tables, name)
	for i, n := range c.order {
		if n == name {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	err := c.broadcast(frame{Op: opDropTable, Name: name})
	if err != nil && errors.Is(err, kvstore.ErrNoTable) && known {
		// A replica that missed the create; the drop still won.
		return nil
	}
	return err
}

// Tables implements kvstore.Store.
func (c *Client) Tables() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// RunAgent implements kvstore.Store. The agent executes client-side — mobile
// code is not shipped over this transport (Go functions don't serialize) —
// so "collocated" here means the invocation, not the key, is the unit of wire
// traffic: the agent's part views buffer its writes and send them as one
// replicated batch frame per table when it returns nil, and fetch hinted
// reads in one frame (see netShardView.run). The SPI contract the engine
// relies on (one part's view of every co-placed table) is preserved.
func (c *Client) RunAgent(tableName string, part int, agent kvstore.Agent) (any, error) {
	c.mu.Lock()
	meta, ok := c.tables[tableName]
	closed := c.closed
	c.mu.Unlock()
	switch {
	case closed:
		return nil, kvstore.ErrClosed
	case !ok:
		return nil, fmt.Errorf("%w: %q", kvstore.ErrNoTable, tableName)
	case meta.ubiq:
		return nil, fmt.Errorf("netstore: RunAgent against ubiquitous table %q", tableName)
	}
	if err := kvstore.CheckPart(part, meta.parts); err != nil {
		return nil, err
	}
	sv := &netShardView{c: c, anchor: tableName, meta: meta, part: part}
	return sv.run(agent)
}

// Close implements kvstore.Store.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.shutdown()
	return nil
}

func (c *Client) shutdown() {
	c.closeOnce.Do(func() { close(c.done) })
	c.wg.Wait()
	for _, sc := range c.conns {
		sc.close()
	}
}

// --- capabilities ---

// Failovers implements kvstore.FailureSensor: servers declared down, cold
// rejoins, and restarts detected by boot identity all count.
func (c *Client) Failovers() int64 { return c.failovers.Load() }

// BindTrace implements kvstore.TraceBinder.
func (c *Client) BindTrace(traceID uint64) { c.ambient.Store(traceID) }

// pinnedRPC is a retrying call pinned to one specific server (no failover):
// replication and heal both target a particular replica, so a transient
// frame loss must not condemn it — but once the failure detector declares
// the server down mid-retry, further attempts are pointless and it bails.
func (c *Client) pinnedRPC(server int, req frame) (frame, error) {
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			c.met.AddRPCRetries(1)
			time.Sleep(c.netBackoff(req.Op, req.Part, attempt))
		}
		resp, err := c.rpc(server, req, attempt)
		if err == nil || !isTransport(err) {
			return resp, err
		}
		lastErr = err
		if !c.isUp(server) {
			break
		}
	}
	return frame{}, lastErr
}

// forceDown declares a server down immediately. Heal uses it when a replica
// stops answering mid-heal: the replica may be torn (cleared but not yet
// re-seeded), so it must not serve reads until a later heal re-seeds it —
// the revival path marks rejoining servers cold, which guarantees that.
func (c *Client) forceDown(server int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &c.states[server]
	if st.up {
		st.up = false
		c.met.ServerUp(server).Set(0)
		c.bumpFailoverLocked()
	}
}

// Heal implements kvstore.Healer: re-ensure DDL on every live server, then
// re-seed every cold server's replica parts from a warm member of each
// part's replica set. The engine invokes it (per table) before re-running a
// job from its last checkpoint; healing the whole registry is idempotent,
// so the per-table argument only matters for error attribution.
//
// A server that stops answering mid-heal does not fail the heal: it is
// declared down (see forceDown) and skipped, because every part it carries
// still has the warm source the heal was copying from. Only losing the last
// warm member of a replica set is fatal.
func (c *Client) Heal(string) error {
	c.healMu.Lock()
	defer c.healMu.Unlock()

	c.mu.Lock()
	cold := make([]int, 0, len(c.states))
	for s, st := range c.states {
		if st.up && st.cold {
			cold = append(cold, s)
		}
	}
	names := make([]string, len(c.order))
	copy(names, c.order)
	metas := make(map[string]tableMeta, len(c.tables))
	for n, m := range c.tables {
		metas[n] = m
	}
	qsets := make(map[string]int, len(c.qsets))
	for n, q := range c.qsets {
		qsets[n] = q
	}
	c.mu.Unlock()

	// DDL first: a rejoined server may have lost everything, and every
	// other op needs its tables back before data can be copied in. A server
	// that cannot be reached is declared down rather than half-healed.
	for _, name := range names {
		m := metas[name]
		req := frame{Op: opCreateTable, Name: name, Part: m.parts, Flag: m.ubiq}
		if m.ordered {
			req.Aux = 1
		}
		for s := range c.conns {
			if !c.isUp(s) {
				continue
			}
			if _, err := c.pinnedRPC(s, req); err != nil && !errors.Is(err, kvstore.ErrTableExists) {
				if isTransport(err) {
					c.forceDown(s)
					continue
				}
				return fmt.Errorf("netstore: heal: ensure %q on server %d: %w", name, s, err)
			}
		}
	}
	// Queue sets too: a restarted server dropped its queues, and the no-sync
	// path needs the set to exist everywhere before puts route to it.
	for name, queues := range qsets {
		req := frame{Op: opMQCreate, Name: name, Part: queues}
		for s := range c.conns {
			if !c.isUp(s) {
				continue
			}
			if _, err := c.pinnedRPC(s, req); err != nil && !errors.Is(err, mq.ErrExists) {
				if isTransport(err) {
					c.forceDown(s)
					continue
				}
				return fmt.Errorf("netstore: heal: ensure queue set %q on server %d: %w", name, s, err)
			}
		}
	}
	if len(cold) == 0 {
		return nil
	}

	coldSet := make(map[int]bool, len(cold))
	for _, s := range cold {
		coldSet[s] = true
	}
	for _, name := range names {
		m := metas[name]
		parts := m.parts
		if m.ubiq {
			parts = 1
		}
		for part := 0; part < parts; part++ {
			rs := c.replicaSetFor(part, m.ubiq)
			// Source: the first warm live member — the same order reads
			// prefer, so the heal copies what readers have been seeing. A
			// source that stops answering is declared down and the next warm
			// member takes over; the warm set strictly shrinks, so this
			// terminates.
			var snap frame
			src := -1
			for {
				src = -1
				for _, s := range rs {
					if c.isUp(s) && !coldSet[s] {
						src = s
						break
					}
				}
				if src < 0 {
					return fmt.Errorf("netstore: heal %q part %d: no warm replica: %w",
						name, part, kvstore.ErrShardFailed)
				}
				var err error
				snap, err = c.pinnedRPC(src, frame{Op: opSnapshot, Name: name, Part: part})
				if err == nil {
					break
				}
				if !isTransport(err) {
					return fmt.Errorf("netstore: heal %q part %d: snapshot from server %d: %w",
						name, part, src, err)
				}
				c.forceDown(src)
			}
			for _, s := range rs {
				if s == src || !c.isUp(s) {
					continue
				}
				if _, err := c.pinnedRPC(s, frame{Op: opClearPart, Name: name, Part: part}); err != nil {
					if isTransport(err) {
						c.forceDown(s)
						continue
					}
					return fmt.Errorf("netstore: heal %q part %d: clear on server %d: %w",
						name, part, s, err)
				}
				if _, err := c.pinnedRPC(s, frame{Op: opPutBatch, Name: name, Part: part, Pairs: snap.Pairs}); err != nil {
					if isTransport(err) {
						c.forceDown(s)
						continue
					}
					return fmt.Errorf("netstore: heal %q part %d: seed server %d: %w",
						name, part, s, err)
				}
			}
		}
	}

	c.mu.Lock()
	for _, s := range cold {
		if c.states[s].up {
			c.states[s].cold = false
		}
	}
	c.mu.Unlock()
	return nil
}
