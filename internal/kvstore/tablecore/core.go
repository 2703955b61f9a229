// Package tablecore is everything a partitioned in-process store does above
// a part: the table catalogue, partition groups and co-placement, key→part
// routing of table operations, the boundary a value crosses on its way into
// or out of a part (latency, marshalling, the marshalled-bytes count),
// ubiquitous tables, agent dispatch and the two enumerations.
//
// What is left to a store is how one part holds its pairs and how it is
// reached — the Part interface. memstore answers with one map behind a pair of
// service goroutines; gridstore with N replicas, failover and a transaction
// write-set; diskstore with a WAL, a memtable and SSTable runs. A store embeds
// *Core for its kvstore.Store methods and adds its optional capabilities
// itself, so Core must never grow a method that one of kvstore's optional
// interfaces names.
//
// The local view of a part (kvstore.PartView) is the backend's own type and
// Core hands it to agents as is: a state read inside an agent is one direct
// method call, exactly as before the core existed.
//
// The package sits under kvstore/ on purpose. codec.RegisterFast hands out
// wire tags in package-initialization order, netstore's frame tag must come
// out the same in a client binary (which also links ebsp, pagerank, sssp) and
// in ripple-part-server (which does not), and Go initializes ready packages in
// import-path order. A dependency of netstore that sorted after those
// packages would delay netstore's init in the client only and the two sides
// would disagree on the tag (TestProcessKillSoak catches it).
package tablecore

import (
	"fmt"
	"sync"
	"time"

	"ripple/internal/codec"
	"ripple/internal/kvstore"
	"ripple/internal/metrics"
)

// Part is one partition of a group, as a backend stores and reaches it. It
// holds that partition's pairs for every table of the group.
type Part interface {
	// Create makes room for the named table — or opens what a previous run
	// left of it — and returns the local view of it: direct, unmarshalled
	// access for code running next to the part, valid until the table is
	// dropped.
	Create(table string) (kvstore.PartView, error)
	// Release lets go of the named table without discarding its pairs. Core
	// calls it to undo the parts a failed CreateTable had already created.
	Release(table string)
	// Drop discards the named table's pairs.
	Drop(table string)
	// Client runs op the way a short request from outside the part reaches
	// it, and returns once op has run; a part that has been stopped returns
	// kvstore.ErrClosed without running it.
	Client(op func()) error
	// Run is Client for long bodies: agents and per-part enumerations.
	Run(body func()) error
	// Stop releases the part's resources, after which Client and Run return
	// kvstore.ErrClosed. Core calls it once: from Close, or when the last
	// table of the part's group is dropped.
	Stop() error
}

// Config is the behaviour a store's options select.
type Config struct {
	Name         string // Store.Name
	DefaultParts int
	Marshal      bool // values crossing the boundary are deep-copied through the codec
	// ViewsEncode says the parts' views copy values through the codec
	// themselves — Put encodes (splicing a codec.Encoded as is), Get decodes
	// a fresh value — so a value crosses the boundary untouched.
	ViewsEncode bool
	Latency     time.Duration // emulated network latency per boundary crossing
	Metrics     *metrics.Collector
}

// Core implements kvstore.Store over a backend's parts.
type Core struct {
	cfg     Config
	newPart func(part, parts int) Part

	mu     sync.Mutex
	closed bool
	tables map[string]*table
	order  []string
	groups []*Group
	nextID int
}

// Group is a set of consistently partitioned tables sharing parts. A
// ubiquitous table is the only table of its own one-part group.
type Group struct {
	id     int
	ubiq   bool
	tables int
	Parts  []Part
}

// New creates a Core whose groups are made of parts from newPart, which is
// told the group's part count.
func New(cfg Config, newPart func(part, parts int) Part) *Core {
	return &Core{cfg: cfg, newPart: newPart, tables: make(map[string]*table)}
}

// Name implements kvstore.Store.
func (c *Core) Name() string { return c.cfg.Name }

// DefaultParts implements kvstore.Store.
func (c *Core) DefaultParts() int { return c.cfg.DefaultParts }

// CreateTable implements kvstore.Store. If the table cannot be created on
// every part, the parts that did create it release it again and the error is
// returned.
func (c *Core) CreateTable(name string, opts ...kvstore.TableOption) (kvstore.Table, error) {
	cfg := kvstore.ApplyOptions(c.cfg.DefaultParts, opts)

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, kvstore.ErrClosed
	}
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("%w: %q", kvstore.ErrTableExists, name)
	}
	var g *Group
	if cfg.ConsistentWith != "" && !cfg.Ubiquitous {
		base, ok := c.tables[cfg.ConsistentWith]
		if !ok {
			return nil, fmt.Errorf("%w: consistent-with %q", kvstore.ErrNoTable, cfg.ConsistentWith)
		}
		g = base.group
	} else {
		c.nextID++
		g = &Group{id: c.nextID, ubiq: cfg.Ubiquitous, Parts: make([]Part, cfg.Parts)}
		for p := range g.Parts {
			g.Parts[p] = c.newPart(p, cfg.Parts)
		}
	}
	t := &table{core: c, name: name, group: g, ordered: cfg.Ordered, ubiq: cfg.Ubiquitous,
		views: make([]kvstore.PartView, len(g.Parts))}
	for p, part := range g.Parts {
		view, err := part.Create(name)
		if err != nil {
			for _, opened := range g.Parts[:p] {
				opened.Release(name)
			}
			if g.tables == 0 {
				_ = stop(g) // a group of its own, never used
			}
			return nil, err
		}
		t.views[p] = view
	}
	if g.tables == 0 {
		c.groups = append(c.groups, g)
	}
	g.tables++
	c.tables[name] = t
	c.order = append(c.order, name)
	return t, nil
}

// LookupTable implements kvstore.Store.
func (c *Core) LookupTable(name string) (kvstore.Table, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, false
	}
	return t, true
}

// DropTable implements kvstore.Store. Dropping the last table of a group
// stops the group's parts — outside the catalogue lock, since an agent still
// running on one of them may be resolving a view. A handle to the dropped
// table answers ErrNoTable from then on.
func (c *Core) DropTable(name string) error {
	c.mu.Lock()
	t, ok := c.tables[name]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %q", kvstore.ErrNoTable, name)
	}
	t.dropped.Store(true)
	delete(c.tables, name)
	c.order = remove(c.order, name)
	g := t.group
	for _, part := range g.Parts {
		part.Drop(name)
	}
	g.tables--
	last := g.tables == 0 && !c.closed // Close stops the parts otherwise
	if last {
		c.groups = remove(c.groups, g)
	}
	c.mu.Unlock()
	if last {
		_ = stop(g)
	}
	return nil
}

func remove[T comparable](s []T, v T) []T {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// stop stops every part of g and returns the first error.
func stop(g *Group) error {
	var first error
	for _, part := range g.Parts {
		if err := part.Stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Tables implements kvstore.Store.
func (c *Core) Tables() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Close implements kvstore.Store: the catalogue closes, then every part is
// stopped. The first error a part reports on the way down is returned.
func (c *Core) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	groups := c.groups
	c.mu.Unlock()
	var first error
	for _, g := range groups {
		if err := stop(g); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c *Core) lookup(name string) (*table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, kvstore.ErrClosed
	}
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", kvstore.ErrNoTable, name)
	}
	return t, nil
}

// Locate resolves the named table's group; a ubiquitous table's is its own
// one-part group.
func (c *Core) Locate(table string) (*Group, error) {
	t, err := c.lookup(table)
	if err != nil {
		return nil, err
	}
	return t.group, nil
}

// LocatePart is the argument check shared by every per-part entry point —
// RunAgent here, transactions and failure injection in a backend: the table
// exists, is partitioned, and has the part. op names the caller in errors.
func (c *Core) LocatePart(op, table string, part int) (*Group, error) {
	t, err := c.lookup(table)
	if err != nil {
		return nil, err
	}
	if t.ubiq {
		return nil, fmt.Errorf("%s: %s against ubiquitous table %q", c.cfg.Name, op, table)
	}
	if err := kvstore.CheckPart(part, len(t.group.Parts)); err != nil {
		return nil, err
	}
	return t.group, nil
}

// RunAgent implements kvstore.Store: the agent runs next to the part, with
// unmarshalled access to it.
func (c *Core) RunAgent(table string, part int, agent kvstore.Agent) (any, error) {
	g, err := c.LocatePart("RunAgent", table, part)
	if err != nil {
		return nil, err
	}
	return c.runAt(g, part, agent)
}

func (c *Core) runAt(g *Group, part int, body func(kvstore.ShardView) (any, error)) (res any, err error) {
	derr := g.Parts[part].Run(func() {
		res, err = body(&shardView{core: c, group: g, part: part})
	})
	if derr != nil {
		return nil, derr
	}
	return res, err
}

// ViewAt resolves what an agent at (g, part) sees under a table name: the
// backend's local view of a co-placed table, or a ubiquitous table's one
// part. A backend with its own ShardView (a transaction) resolves names
// through it so the co-placement rule has one definition.
func (c *Core) ViewAt(g *Group, part int, name string) (kvstore.PartView, error) {
	t, err := c.lookup(name)
	if err != nil {
		return nil, err
	}
	switch {
	case t.ubiq:
		return t.views[0], nil
	case !coPlaced(t.group, g):
		return nil, fmt.Errorf("%w: %q is in group g%d, agent runs in group g%d",
			kvstore.ErrNotCoPlaced, name, t.group.id, g.id)
	}
	return t.views[part], nil
}

// coPlaced reports whether two groups share a key→part mapping, which is what
// lets an agent next to a part of one see the same part of the other. A group
// is co-placed with itself; distinct groups are when they have the same part
// count. A ubiquitous table's one-part group partitions nothing, so it is
// co-placed only with itself.
func coPlaced(a, b *Group) bool {
	return a == b || (!a.ubiq && !b.ubiq && len(a.Parts) == len(b.Parts))
}

// shardView is an agent's window onto one part of a group.
type shardView struct {
	core  *Core
	group *Group
	part  int
}

func (sv *shardView) Part() int { return sv.part }

func (sv *shardView) View(name string) (kvstore.PartView, error) {
	return sv.core.ViewAt(sv.group, sv.part, name)
}

// roundTrip moves v across a partition boundary. A pre-encoded value
// (codec.Encoded) pays only the decode half — the sender already marshalled
// it once and shared the bytes — and is unwrapped even with marshalling
// disabled, so callers never see the wrapper. Views that encode for
// themselves take it as is.
func (c *Core) roundTrip(v any) (any, error) {
	if c.cfg.Latency > 0 {
		time.Sleep(c.cfg.Latency)
	}
	if c.cfg.ViewsEncode {
		return v, nil
	}
	if enc, ok := v.(codec.Encoded); ok {
		if c.cfg.Marshal {
			c.cfg.Metrics.AddMarshalledBytes(int64(enc.Size()))
		}
		return enc.Decode()
	}
	if !c.cfg.Marshal {
		return v, nil
	}
	out, n, err := codec.RoundTrip(v)
	if err != nil {
		return nil, err
	}
	c.cfg.Metrics.AddMarshalledBytes(int64(n))
	return out, nil
}
