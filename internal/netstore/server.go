package netstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ripple/internal/kvstore"
	"ripple/internal/metrics"
	"ripple/internal/mq"
	"ripple/internal/trace"
)

// Server is one part-server process: it owns the shards of every table the
// fleet places on it, serves the mq queues collocated with those parts, and
// answers the framed-RPC protocol. Keys and values are opaque encoded bytes
// end to end — the server never needs the client's Go types, which is what
// lets one server binary serve any analytics job.
type Server struct {
	bootID int64
	start  time.Time
	met    *metrics.Collector
	tr     *trace.Tracer

	// Wire accounting for the telemetry ops: bytes read from and written to
	// all client connections, length prefixes included.
	wireIn  atomic.Int64
	wireOut atomic.Int64

	mu     sync.Mutex
	tables map[string]*srvTable
	order  []string
	qsys   *mq.System
	qsets  map[string]mq.Set
	closed bool

	lnMu  sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerMetrics attaches a metrics collector (per-endpoint service-time
// histograms and RPC counters, exposed on the server's own /metrics).
func WithServerMetrics(m *metrics.Collector) ServerOption {
	return func(s *Server) { s.met = m }
}

// WithServerTracer attaches a tracer; server-side RPC spans join the causal
// trace the client stamps on frames.
func WithServerTracer(t *trace.Tracer) ServerOption {
	return func(s *Server) { s.tr = t }
}

// NewServer creates an empty part-server. Its boot identity is minted from
// the wall clock, so a restarted process is distinguishable from a network
// blip even when it comes back fast.
func NewServer(opts ...ServerOption) *Server {
	s := &Server{
		bootID: time.Now().UnixNano(),
		start:  time.Now(),
		tables: make(map[string]*srvTable),
		qsys:   mq.NewSystem(mq.WithoutMarshalling()),
		qsets:  make(map[string]mq.Set),
		conns:  make(map[net.Conn]struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// BootID is the server's boot identity, echoed in ping responses.
func (s *Server) BootID() int64 { return s.bootID }

// Serve accepts connections on ln until Close. It returns nil on a clean
// shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.ln != nil {
		s.lnMu.Unlock()
		return errors.New("netstore: server already serving")
	}
	s.ln = ln
	s.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.lnMu.Lock()
		if s.conns == nil {
			s.lnMu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.lnMu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close stops accepting, closes every connection, and wakes blocked queue
// readers. Requests still in flight get no response (see serveConn).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	sets := make([]mq.Set, 0, len(s.qsets))
	for _, set := range s.qsets {
		sets = append(sets, set)
	}
	s.mu.Unlock()
	for _, set := range sets {
		_ = set.Close()
	}
	s.lnMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.conns = nil
	s.lnMu.Unlock()
	s.wg.Wait()
	return nil
}

// serveConn reads frames sequentially and handles each in its own goroutine
// — long-poll reads must not block unrelated requests on the same
// connection. Responses are serialized by a per-connection write mutex.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.lnMu.Lock()
		if s.conns != nil {
			delete(s.conns, conn)
		}
		s.lnMu.Unlock()
		conn.Close()
	}()
	var wmu sync.Mutex
	var reqWG sync.WaitGroup
	defer reqWG.Wait()
	for {
		req, n, err := readFrameN(conn)
		if err != nil {
			return
		}
		s.wireIn.Add(int64(n))
		reqWG.Add(1)
		go func(req frame) {
			defer reqWG.Done()
			start := time.Now()
			resp := s.handle(req)
			dur := time.Since(start)
			s.met.Endpoint(opName(req.Op)).ObserveDuration(dur)
			s.met.AddRPCCalls(1)
			if req.Trace != 0 && s.tr != nil {
				s.tr.RecordSpan(trace.Span{
					Kind: trace.KindRPCServer, Job: opName(req.Op), Part: req.Part,
					N: int64(req.ID), Dur: dur, Trace: req.Trace, Parent: req.Span,
				})
			}
			if s.isClosed() {
				// A closing server looks like a dead one: whatever this
				// request raced with Close into — an ErrClosed reply most of
				// all — is dropped with the connection, so the client retries
				// and fails over instead of taking a farewell as a verdict.
				conn.Close()
				return
			}
			wmu.Lock()
			n, err := writeFrameN(conn, resp)
			wmu.Unlock()
			s.wireOut.Add(int64(n))
			if err != nil {
				conn.Close()
			}
		}(req)
	}
}

// handle executes one request and builds its response.
func (s *Server) handle(req frame) frame {
	resp, err := s.dispatch(req)
	if err != nil {
		return errFrame(req, err)
	}
	resp.ID = req.ID
	resp.Op = req.Op
	return resp
}

func (s *Server) dispatch(req frame) (frame, error) {
	switch req.Op {
	case opPing:
		// The response also carries the server's monotonic now (8 bytes BE,
		// same clock base as its trace spans) so clients can estimate this
		// server's clock offset from the RTT midpoint, NTP-style.
		var now [8]byte
		binary.BigEndian.PutUint64(now[:], uint64(s.monoNow()))
		return frame{Aux: s.bootID, Val: now[:]}, nil
	case opStats:
		return s.statsFrame()
	case opTraceDump:
		return s.traceDumpFrame(uint64(req.Aux))
	case opHealth:
		return s.healthFrame()
	case opCreateTable:
		return frame{}, s.createTable(req.Name, req.Part, req.Flag, req.Aux&1 != 0)
	case opDropTable:
		return frame{}, s.dropTable(req.Name)
	case opLookupTable:
		return s.lookupTable(req.Name), nil
	case opTables:
		return s.listTables(), nil
	case opMQCreate:
		return frame{}, s.mqCreate(req.Name, req.Part)
	case opMQDelete:
		return frame{}, s.qsys.DeleteQueueSet(req.Name)
	case opMQPut, opMQRead, opMQLen, opMQClose:
		return s.mqOp(req)
	}
	// Everything else targets one part of one table.
	t, err := s.tableOf(req.Name)
	if err != nil {
		return frame{}, err
	}
	if err := kvstore.CheckPart(req.Part, len(t.shards)); err != nil {
		return frame{}, err
	}
	sh := t.shards[req.Part]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch req.Op {
	case opGet:
		v, ok := sh.items[string(req.Key)]
		return frame{Flag: ok, Val: v}, nil
	case opPut:
		sh.items[string(req.Key)] = req.Val
		return frame{}, nil
	case opDelete:
		delete(sh.items, string(req.Key))
		return frame{}, nil
	case opLen:
		return frame{Aux: int64(len(sh.items))}, nil
	case opSnapshot:
		pairs := make([]wirePair, 0, len(sh.items))
		for k, v := range sh.items {
			pairs = append(pairs, wirePair{K: []byte(k), V: v})
		}
		return frame{Pairs: pairs}, nil
	case opClearPart:
		sh.items = make(map[string][]byte)
		return frame{}, nil
	case opPutBatch:
		// Applied whole under the shard lock: no reader of this replica sees
		// half of an agent's writes, and a replayed batch lands on the same
		// final state.
		for _, p := range req.Pairs {
			if p.Absent {
				delete(sh.items, string(p.K))
			} else {
				sh.items[string(p.K)] = p.V
			}
		}
		return frame{}, nil
	case opGetBatch:
		pairs := make([]wirePair, len(req.Pairs))
		for i, p := range req.Pairs {
			v, ok := sh.items[string(p.K)]
			pairs[i] = wirePair{V: v, Absent: !ok}
		}
		return frame{Pairs: pairs}, nil
	}
	return frame{}, fmt.Errorf("netstore: unknown opcode %d", req.Op)
}

// srvTable is one table's server-side state: a mutex-guarded byte-keyed map
// per shard. The client computes placement, so the server just honors the
// part index on each request.
type srvTable struct {
	parts   int
	ubiq    bool
	ordered bool
	shards  []*srvShard
}

type srvShard struct {
	mu    sync.Mutex
	items map[string][]byte
}

func (s *Server) createTable(name string, parts int, ubiq, ordered bool) error {
	if parts <= 0 {
		return fmt.Errorf("netstore: table %q: bad part count %d", name, parts)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return kvstore.ErrClosed
	}
	if _, ok := s.tables[name]; ok {
		return fmt.Errorf("%w: %q", kvstore.ErrTableExists, name)
	}
	t := &srvTable{parts: parts, ubiq: ubiq, ordered: ordered, shards: make([]*srvShard, parts)}
	for i := range t.shards {
		t.shards[i] = &srvShard{items: make(map[string][]byte)}
	}
	s.tables[name] = t
	s.order = append(s.order, name)
	return nil
}

func (s *Server) dropTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; !ok {
		return fmt.Errorf("%w: %q", kvstore.ErrNoTable, name)
	}
	delete(s.tables, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return nil
}

func (s *Server) lookupTable(name string) frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	if !ok {
		return frame{Flag: false}
	}
	var aux int64
	if t.ordered {
		aux |= 1
	}
	if t.ubiq {
		aux |= 2
	}
	return frame{Flag: true, Part: t.parts, Aux: aux}
}

func (s *Server) listTables() frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	pairs := make([]wirePair, 0, len(s.order))
	for _, n := range s.order {
		pairs = append(pairs, wirePair{K: []byte(n)})
	}
	return frame{Pairs: pairs}
}

func (s *Server) tableOf(name string) (*srvTable, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, kvstore.ErrClosed
	}
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", kvstore.ErrNoTable, name)
	}
	return t, nil
}

// partsStub satisfies the sliver of kvstore.Table that mq.System's
// CreateQueueSet reads (the part count used for queue placement).
type partsStub struct {
	kvstore.Table
	n int
}

func (p partsStub) Parts() int { return p.n }

func (s *Server) mqCreate(name string, queues int) error {
	if queues <= 0 {
		return fmt.Errorf("netstore: queue set %q: bad queue count %d", name, queues)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return kvstore.ErrClosed
	}
	set, err := s.qsys.CreateQueueSet(name, partsStub{n: queues})
	if err != nil {
		return err
	}
	s.qsets[name] = set
	return nil
}

func (s *Server) mqOp(req frame) (frame, error) {
	s.mu.Lock()
	set, ok := s.qsets[req.Name]
	s.mu.Unlock()
	if !ok {
		return frame{}, fmt.Errorf("%w: queue set %q", mq.ErrNoQueue, req.Name)
	}
	switch req.Op {
	case opMQPut:
		// The payload stays opaque: the queue holds the client's encoded
		// bytes and hands them back to whichever reader polls them.
		return frame{}, set.Put(req.Part, req.Val)
	case opMQRead:
		r, err := set.ReaderFor(req.Part)
		if err != nil {
			return frame{}, err
		}
		msg, ok, err := r.Read(time.Duration(req.Aux))
		if err != nil {
			return frame{}, err
		}
		if !ok {
			return frame{Flag: false}, nil
		}
		b, _ := msg.([]byte)
		return frame{Flag: true, Val: b}, nil
	case opMQLen:
		r, err := set.ReaderFor(req.Part)
		if err != nil {
			return frame{}, err
		}
		return frame{Aux: int64(r.Len())}, nil
	case opMQClose:
		s.mu.Lock()
		delete(s.qsets, req.Name)
		s.mu.Unlock()
		return frame{}, s.qsys.DeleteQueueSet(req.Name)
	}
	return frame{}, fmt.Errorf("netstore: unknown mq opcode %d", req.Op)
}
