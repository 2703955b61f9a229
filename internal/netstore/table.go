package netstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ripple/internal/codec"
	"ripple/internal/kvstore"
	"ripple/internal/kvstore/tablecore"
)

// encKey encodes a key for the wire.
func encKey(key any) ([]byte, error) { return codec.Encode(key) }

// encVal encodes a value for the wire; pre-encoded values ship their bytes
// directly (the PreEncode fast path survives the network hop).
func encVal(v any) ([]byte, error) {
	if e, ok := v.(codec.Encoded); ok {
		return e.Bytes(), nil
	}
	return codec.Encode(v)
}

// decVal decodes a wire value. Like the in-process stores' round-trip, a
// value stored as codec.Encoded comes back as the underlying value.
func decVal(b []byte) (any, error) { return codec.Decode(b) }

// netTable is the client-side handle to one remote table.
type netTable struct {
	c    *Client
	name string
	meta tableMeta
}

var _ kvstore.Table = (*netTable)(nil)

// Name implements kvstore.Table.
func (t *netTable) Name() string { return t.name }

// Parts implements kvstore.Table.
func (t *netTable) Parts() int {
	if t.meta.ubiq {
		return 1
	}
	return t.meta.parts
}

// Ubiquitous implements kvstore.Table.
func (t *netTable) Ubiquitous() bool { return t.meta.ubiq }

// PartOf implements kvstore.Table.
func (t *netTable) PartOf(key any) int {
	if t.meta.ubiq {
		return 0
	}
	return codec.PartOf(codec.DefaultHasher{}, key, t.meta.parts)
}

// Get implements kvstore.Table.
func (t *netTable) Get(key any) (any, bool, error) {
	t.c.met.AddStoreGets(1)
	part := t.PartOf(key)
	kb, err := encKey(key)
	if err != nil {
		return nil, false, err
	}
	resp, err := t.c.callOp(t.c.replicaSetFor(part, t.meta.ubiq),
		frame{Op: opGet, Name: t.name, Part: part, Key: kb}, false)
	if err != nil {
		return nil, false, err
	}
	if !resp.Flag {
		return nil, false, nil
	}
	v, err := decVal(resp.Val)
	return v, err == nil, err
}

// Put implements kvstore.Table.
func (t *netTable) Put(key, value any) error {
	t.c.met.AddStorePuts(1)
	part := t.PartOf(key)
	kb, err := encKey(key)
	if err != nil {
		return err
	}
	vb, err := encVal(value)
	if err != nil {
		return err
	}
	t.c.met.AddMarshalledBytes(int64(len(kb) + len(vb)))
	_, err = t.c.callOp(t.c.replicaSetFor(part, t.meta.ubiq),
		frame{Op: opPut, Name: t.name, Part: part, Key: kb, Val: vb}, true)
	return err
}

// Delete implements kvstore.Table.
func (t *netTable) Delete(key any) error {
	t.c.met.AddStoreDeletes(1)
	part := t.PartOf(key)
	kb, err := encKey(key)
	if err != nil {
		return err
	}
	_, err = t.c.callOp(t.c.replicaSetFor(part, t.meta.ubiq),
		frame{Op: opDelete, Name: t.name, Part: part, Key: kb}, true)
	return err
}

// Size implements kvstore.Table.
func (t *netTable) Size() (int, error) {
	total := 0
	for part := 0; part < t.Parts(); part++ {
		resp, err := t.c.callOp(t.c.replicaSetFor(part, t.meta.ubiq),
			frame{Op: opLen, Name: t.name, Part: part}, false)
		if err != nil {
			return 0, err
		}
		total += int(resp.Aux)
	}
	return total, nil
}

// EnumerateParts implements kvstore.Table: ProcessPart runs once per part in
// parallel (each part's ops flowing to that part's replica set), and results
// are folded in part order so the combined result is deterministic — the
// same contract as the in-process stores.
func (t *netTable) EnumerateParts(pc kvstore.PartConsumer) (any, error) {
	if t.meta.ubiq {
		sv := &netShardView{c: t.c, anchor: t.name, meta: t.meta, part: 0}
		return sv.run(pc.ProcessPart)
	}
	return tablecore.ForEachPart(t.meta.parts, pc.Combine, func(p int) (any, error) {
		sv := &netShardView{c: t.c, anchor: t.name, meta: t.meta, part: p}
		return sv.run(pc.ProcessPart)
	})
}

// EnumeratePairs implements kvstore.Table.
func (t *netTable) EnumeratePairs(pc kvstore.PairConsumer) (any, error) {
	if t.meta.ubiq {
		if err := pc.SetupPart(0); err != nil {
			return nil, err
		}
		pairs, err := t.c.snapshotPairs(t.name, 0, t.meta, true)
		if err != nil {
			return nil, err
		}
		for _, p := range pairs {
			stop, err := pc.ConsumePair(p.k, p.v)
			if err != nil {
				return nil, err
			}
			if stop {
				break
			}
		}
		return pc.FinishPart(0)
	}
	return t.EnumerateParts(tablecore.PairsByPart(t.name, t.meta.ordered, pc))
}

// decodedPair is one snapshot entry decoded back to Go values.
type decodedPair struct {
	k, v any
}

// snapshotPairs fetches one part's full contents and decodes them; with
// ordered set, the pairs come back in codec.CompareKeys order.
func (c *Client) snapshotPairs(table string, part int, meta tableMeta, ordered bool) ([]decodedPair, error) {
	resp, err := c.callOp(c.replicaSetFor(part, meta.ubiq),
		frame{Op: opSnapshot, Name: table, Part: part}, false)
	if err != nil {
		return nil, err
	}
	pairs := make([]decodedPair, 0, len(resp.Pairs))
	for _, wp := range resp.Pairs {
		k, err := codec.Decode(wp.K)
		if err != nil {
			return nil, fmt.Errorf("netstore: snapshot %q part %d: bad key: %w", table, part, err)
		}
		v, err := decVal(wp.V)
		if err != nil {
			return nil, fmt.Errorf("netstore: snapshot %q part %d: bad value: %w", table, part, err)
		}
		pairs = append(pairs, decodedPair{k: k, v: v})
	}
	if ordered {
		sort.SliceStable(pairs, func(i, j int) bool {
			return codec.CompareKeys(pairs[i].k, pairs[j].k) < 0
		})
	}
	return pairs, nil
}

// netShardView is an agent's window onto one part of every co-placed table.
// The invocation, not the key, is its unit of wire traffic: the part views it
// hands out (one per table, shared by repeated View calls) buffer the
// agent's writes and read ahead for it, and run sends each table's buffer as
// one replicated frame when the agent succeeds.
type netShardView struct {
	c      *Client
	anchor string // the table the agent was dispatched against
	meta   tableMeta
	part   int

	mu    sync.Mutex
	views []*netPartView // in first-View order, which is also flush order
	sent  atomic.Bool    // a batch has gone out: the body's effects may be partly applied
}

var _ kvstore.ShardView = (*netShardView)(nil)

// Part implements kvstore.ShardView.
func (sv *netShardView) Part() int { return sv.part }

// View implements kvstore.ShardView. Co-placement is structural: placement
// is a pure function of (part, fleet), so any two tables with the same part
// count are co-placed, and ubiquitous tables are visible from everywhere. An
// agent anchored on a ubiquitous table sees only ubiquitous tables.
func (sv *netShardView) View(tableName string) (kvstore.PartView, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	for _, pv := range sv.views {
		if pv.table == tableName {
			return pv, nil
		}
	}
	meta, ok := sv.c.metaOf(tableName)
	if !ok {
		return nil, fmt.Errorf("%w: %q", kvstore.ErrNoTable, tableName)
	}
	pv := &netPartView{c: sv.c, table: tableName, meta: meta, part: sv.part, rpcPart: sv.part, sent: &sv.sent}
	switch {
	case meta.ubiq:
		pv.rpcPart = 0
	case sv.meta.ubiq || meta.parts != sv.meta.parts:
		return nil, fmt.Errorf("%w: %q has %d parts, agent anchor %q has %d",
			kvstore.ErrNotCoPlaced, tableName, meta.parts, sv.anchor, sv.meta.parts)
	}
	sv.views = append(sv.views, pv)
	return pv, nil
}

// run is the one place agent code (a RunAgent body or an EnumerateParts
// ProcessPart) executes against the view. A body that returns nil has its
// buffered writes flushed, one batch per table; a body that returns an error
// or panics never reaches the flush, so its buffers die with the view.
//
// The error class matters to the engine: it re-runs a body that failed with
// kvstore.ErrTransient, which is only sound while none of the body's writes
// have been applied. Once a batch has gone out — even one that exhausted its
// retries, which may sit on some replicas and not on others — a transient
// failure therefore surfaces as kvstore.ErrShardFailed, the class the engine
// heals and restores a checkpoint for, with the transient tag dropped.
func (sv *netShardView) run(body func(kvstore.ShardView) (any, error)) (any, error) {
	res, err := body(sv)
	if err == nil {
		err = sv.flush()
	}
	if err != nil && errors.Is(err, kvstore.ErrTransient) && sv.sent.Load() {
		err = fmt.Errorf("netstore: agent on %s part %d failed with writes applied: %w: %v",
			sv.anchor, sv.part, kvstore.ErrShardFailed, err)
	}
	return res, err
}

func (sv *netShardView) flush() error {
	sv.mu.Lock()
	views := sv.views
	sv.mu.Unlock()
	for _, pv := range views {
		if err := pv.flush(); err != nil {
			return err
		}
	}
	return nil
}

// metaOf resolves a table's registry entry, falling back to the servers for
// tables created by other clients.
func (c *Client) metaOf(name string) (tableMeta, bool) {
	c.mu.Lock()
	meta, ok := c.tables[name]
	c.mu.Unlock()
	if ok {
		return meta, true
	}
	if _, found := c.LookupTable(name); found {
		c.mu.Lock()
		meta, ok = c.tables[name]
		c.mu.Unlock()
		return meta, ok
	}
	return tableMeta{}, false
}

// flushCap bounds one view's buffered writes: the Put or Delete that takes
// them past it flushes early. It sits far below maxFrame, so a batch is never
// refused as oversized, and it is what bounds the memory of an agent that
// writes for a whole job before it returns (the no-sync worker).
const flushCap = 1 << 20

// netPartView gives an agent access to one part of one table. It reports the
// anchor part index (ubiquitous views included, mirroring the in-process
// stores) while routing RPCs to the owning part.
//
// Writes are buffered (write-behind) and leave as one opPutBatch frame; reads
// see the buffer first (read-your-writes), then whatever a ReadAhead hint
// fetched, then the wire. Both live in one map keyed by encoded key, valid
// for this invocation only.
type netPartView struct {
	c       *Client
	table   string
	meta    tableMeta
	part    int // reported part index (the agent's anchor part)
	rpcPart int // part targeted on the wire (0 for ubiquitous tables)

	mu         sync.Mutex
	known      map[string]knownVal // buffered writes and read-ahead results
	dirty      []string            // keys with an unflushed write, in first-write order
	dirtyBytes int                 // encoded size of the unflushed writes
	hint       []any               // ReadAhead keys not fetched yet
	sent       *atomic.Bool        // the shard view's: set once a batch goes out
}

// knownVal is what the view knows about one key without asking the servers.
type knownVal struct {
	val    []byte // encoded value
	absent bool   // deleted, or read ahead and not found
	dirty  bool   // written here and not flushed yet
}

var (
	_ kvstore.PartView    = (*netPartView)(nil)
	_ kvstore.ReadAheader = (*netPartView)(nil)
)

// Table implements kvstore.PartView.
func (pv *netPartView) Table() string { return pv.table }

// Part implements kvstore.PartView.
func (pv *netPartView) Part() int { return pv.part }

// call sends one request for this view's part through the client's retry,
// failover and (for writes) replication path.
func (pv *netPartView) call(req frame, write bool) (frame, error) {
	req.Name, req.Part = pv.table, pv.rpcPart
	return pv.c.callOp(pv.c.replicaSetFor(pv.rpcPart, pv.meta.ubiq), req, write)
}

// ReadAhead implements kvstore.ReadAheader. Nothing is fetched until a Get
// misses the buffer, so an invocation that never reads pays nothing.
func (pv *netPartView) ReadAhead(keys []any) {
	pv.mu.Lock()
	pv.hint = keys
	pv.mu.Unlock()
}

// Get implements kvstore.PartView.
func (pv *netPartView) Get(key any) (any, bool, error) {
	pv.c.met.AddStoreGets(1)
	kb, err := encKey(key)
	if err != nil {
		return nil, false, err
	}
	kv, ok, err := pv.lookup(string(kb))
	if err != nil {
		return nil, false, err
	}
	if !ok {
		resp, err := pv.call(frame{Op: opGet, Key: kb}, false)
		if err != nil {
			return nil, false, err
		}
		kv = knownVal{val: resp.Val, absent: !resp.Flag}
	}
	if kv.absent {
		return nil, false, nil
	}
	v, err := decVal(kv.val)
	return v, err == nil, err
}

// lookup answers from what the view already knows, reading ahead first when
// a hint is pending and the key is not known yet.
func (pv *netPartView) lookup(k string) (knownVal, bool, error) {
	pv.mu.Lock()
	defer pv.mu.Unlock()
	kv, ok := pv.known[k]
	if !ok && pv.hint != nil {
		if err := pv.readAheadLocked(); err != nil {
			return knownVal{}, false, err
		}
		kv, ok = pv.known[k]
	}
	return kv, ok, nil
}

// readAheadLocked fetches the hinted keys the view does not already know in
// one frame. The caller holds pv.mu.
func (pv *netPartView) readAheadLocked() error {
	keys := pv.hint
	pv.hint = nil
	req := frame{Op: opGetBatch, Pairs: make([]wirePair, 0, len(keys))}
	for _, key := range keys {
		kb, err := encKey(key)
		if err != nil {
			return err
		}
		if _, ok := pv.known[string(kb)]; !ok {
			req.Pairs = append(req.Pairs, wirePair{K: kb})
		}
	}
	if len(req.Pairs) == 0 {
		return nil
	}
	resp, err := pv.call(req, false)
	if err != nil {
		return err
	}
	if len(resp.Pairs) != len(req.Pairs) {
		return fmt.Errorf("%w: get_batch answered %d of %d keys", errBadFrame, len(resp.Pairs), len(req.Pairs))
	}
	if pv.known == nil {
		pv.known = make(map[string]knownVal, len(req.Pairs))
	}
	for i, p := range resp.Pairs {
		pv.known[string(req.Pairs[i].K)] = knownVal{val: p.V, absent: p.Absent}
	}
	return nil
}

// Put implements kvstore.PartView.
func (pv *netPartView) Put(key, value any) error {
	pv.c.met.AddStorePuts(1)
	kb, err := encKey(key)
	if err != nil {
		return err
	}
	vb, err := encVal(value)
	if err != nil {
		return err
	}
	return pv.buffer(kb, knownVal{val: vb, dirty: true})
}

// Delete implements kvstore.PartView.
func (pv *netPartView) Delete(key any) error {
	pv.c.met.AddStoreDeletes(1)
	kb, err := encKey(key)
	if err != nil {
		return err
	}
	return pv.buffer(kb, knownVal{absent: true, dirty: true})
}

// buffer records one write; a later write to the same key replaces it in
// place, which the batch's atomic application makes equivalent to sending
// both.
func (pv *netPartView) buffer(kb []byte, kv knownVal) error {
	pv.mu.Lock()
	defer pv.mu.Unlock()
	k := string(kb)
	if old := pv.known[k]; old.dirty {
		pv.dirtyBytes -= len(old.val)
	} else {
		pv.dirty = append(pv.dirty, k)
		pv.dirtyBytes += len(k)
	}
	pv.dirtyBytes += len(kv.val)
	if pv.known == nil {
		pv.known = make(map[string]knownVal)
	}
	pv.known[k] = kv
	if pv.dirtyBytes >= flushCap {
		return pv.flushLocked()
	}
	return nil
}

// flush sends the buffered writes as one replicated batch.
func (pv *netPartView) flush() error {
	pv.mu.Lock()
	defer pv.mu.Unlock()
	return pv.flushLocked()
}

// flushLocked is flush with pv.mu held. The flushed keys leave the map, so
// later reads of them go to the servers. The buffer is gone whether or not
// the batch lands: a failed flush ends the invocation (see netShardView.run
// for the error class it surfaces as).
func (pv *netPartView) flushLocked() error {
	if len(pv.dirty) == 0 {
		return nil
	}
	pairs := make([]wirePair, len(pv.dirty))
	for i, k := range pv.dirty {
		kv := pv.known[k]
		pairs[i] = wirePair{K: []byte(k), V: kv.val, Absent: kv.absent}
		delete(pv.known, k)
	}
	pv.c.met.AddMarshalledBytes(int64(pv.dirtyBytes))
	pv.dirty, pv.dirtyBytes = pv.dirty[:0], 0
	pv.sent.Store(true)
	_, err := pv.call(frame{Op: opPutBatch, Pairs: pairs}, true)
	return err
}

// Len implements kvstore.PartView. The server counts, so buffered writes go
// out first.
func (pv *netPartView) Len() (int, error) {
	if err := pv.flush(); err != nil {
		return 0, err
	}
	resp, err := pv.call(frame{Op: opLen}, false)
	if err != nil {
		return 0, err
	}
	return int(resp.Aux), nil
}

// Enumerate implements kvstore.PartView: buffered writes go out first, then
// one snapshot RPC and a local visit. The snapshot is taken at a point
// between the caller's operations (the same guarantee the in-process stores
// give for enumeration during concurrent writes).
func (pv *netPartView) Enumerate(fn kvstore.PairFunc) error {
	return pv.enumerate(fn, false)
}

// EnumerateOrdered implements kvstore.PartView.
func (pv *netPartView) EnumerateOrdered(fn kvstore.PairFunc) error {
	return pv.enumerate(fn, true)
}

func (pv *netPartView) enumerate(fn kvstore.PairFunc, ordered bool) error {
	if err := pv.flush(); err != nil {
		return err
	}
	pairs, err := pv.c.snapshotPairs(pv.table, pv.rpcPart, pv.meta, ordered)
	if err != nil {
		return err
	}
	for _, p := range pairs {
		stop, err := fn(p.k, p.v)
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}
