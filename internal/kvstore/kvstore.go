// Package kvstore defines Ripple's System Programming Interface (SPI) to the
// fundamental storage+compute layer (paper §III).
//
// The SPI is deliberately narrow so that many key/value store implementations
// can satisfy it with modest adapter code. Data are organized into tables,
// each partitioned into parts (identified by successive integers starting at
// 0); parts may be replicated. Ripple moves responsibility for placing
// computation from the analytics layer to the storage layer: the store runs
// mobile code (agents, part/pair consumers) adjacent to the data it owns.
//
// Three implementations live in sibling packages:
//
//   - memstore: the paper's "parallel debugging store" — per-part service
//     goroutines with marshalling across emulated partition boundaries;
//   - gridstore: a WebSphere-eXtreme-Scale-like store with replication,
//     per-shard ACID transactions, and failure injection;
//   - diskstore: an LSM disk store (memtable, group-commit WAL, SSTables)
//     demonstrating SPI portability out of core.
package kvstore

import (
	"errors"
	"fmt"
)

// Common SPI errors. Store implementations wrap these so callers can match
// with errors.Is regardless of the implementation in use.
var (
	// ErrTableExists is returned by CreateTable when the name is taken.
	ErrTableExists = errors.New("kvstore: table already exists")
	// ErrNoTable is returned when a named table does not exist.
	ErrNoTable = errors.New("kvstore: no such table")
	// ErrBadPart is returned for part indices outside [0, Parts).
	ErrBadPart = errors.New("kvstore: part index out of range")
	// ErrClosed is returned for operations on a closed store.
	ErrClosed = errors.New("kvstore: store is closed")
	// ErrNotCoPlaced is returned when an agent asks for a table that is not
	// partitioned consistently with the table it was dispatched against.
	ErrNotCoPlaced = errors.New("kvstore: table is not co-placed")
	// ErrShardFailed is returned when the primary replica of a shard has
	// failed and the operation must be retried after recovery.
	ErrShardFailed = errors.New("kvstore: shard primary failed")
	// ErrTxConflict is returned when a transaction cannot commit.
	ErrTxConflict = errors.New("kvstore: transaction conflict")
	// ErrTransient marks a transient infrastructure failure: the operation
	// did not take effect and may safely be retried. Fault-injection layers
	// and flaky transports wrap this so the engine can distinguish retryable
	// errors from fatal ones.
	ErrTransient = errors.New("kvstore: transient failure")
)

// Store is the key/value store SPI (paper §III-A). Implementations must be
// safe for concurrent use.
type Store interface {
	// Name identifies the implementation (for logs and experiment output).
	Name() string

	// DefaultParts is the part count used for tables that do not specify one.
	DefaultParts() int

	// CreateTable creates a new table. Use ConsistentWith to guarantee
	// consistent partitioning with an existing table (required when a
	// computation will join the two by key).
	CreateTable(name string, opts ...TableOption) (Table, error)

	// LookupTable returns a handle to an existing table.
	LookupTable(name string) (Table, bool)

	// DropTable removes a table and its data.
	DropTable(name string) error

	// Tables lists the names of existing tables in creation order.
	Tables() []string

	// RunAgent executes mobile code collocated with part `part` of `table`.
	// The agent receives a ShardView giving access to that part of every
	// table consistently partitioned with `table` (plus every ubiquitous
	// table). The returned value is whatever the agent returns.
	RunAgent(table string, part int, agent Agent) (any, error)

	// Close releases the store's resources. Operations after Close return
	// ErrClosed.
	Close() error
}

// Flusher is the optional durability extension of the Store SPI: stores that
// buffer appends implement it to make everything written so far durable on
// the underlying medium — for a disk-backed store that means fsynced, so the
// data survives power loss, not merely the process dying with its page cache
// intact. Callers with durability points (a checkpoint commit, a job-record
// write) call Flush through this interface and may treat its success as a
// hard commit point; stores whose writes are already synchronous simply
// don't implement it.
type Flusher interface {
	Flush() error
}

// Flush pushes s's buffered writes to its medium when s buffers at all; on
// stores without a buffer it is a no-op.
func Flush(s Store) error {
	if f, ok := s.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// Agent is mobile code dispatched by the store to run adjacent to one part's
// data.
type Agent func(sv ShardView) (any, error)

// ShardView is an agent's window onto the co-placed parts it runs next to.
type ShardView interface {
	// Part is the part index this agent is collocated with.
	Part() int
	// View opens the local part of the named table. The table must be
	// co-placed with the table the agent was dispatched against, or
	// ubiquitous.
	View(table string) (PartView, error)
}

// PartView gives an agent direct, local (unmarshalled) access to one part of
// one table. A PartView is only valid inside the agent invocation that
// received it.
type PartView interface {
	// Table names the table this view belongs to.
	Table() string
	// Part is the part index.
	Part() int
	// Get returns the value for key, if present.
	Get(key any) (any, bool, error)
	// Put stores value under key.
	Put(key, value any) error
	// Delete removes key. Deleting an absent key is not an error.
	Delete(key any) error
	// Len reports the number of pairs in this part.
	Len() (int, error)
	// Enumerate visits every pair in this part in unspecified order. The
	// callback returns stop=true to end the enumeration early.
	Enumerate(fn PairFunc) error
	// EnumerateOrdered visits every pair in codec.CompareKeys order.
	EnumerateOrdered(fn PairFunc) error
}

// ReadAheader is an optional PartView capability for views whose reads cross
// a boundary worth batching (a network hop). The caller names the keys it may
// be about to Get; the view may fetch them together. It is a hint: a view may
// ignore it, keys never read cost nothing, and Get stays correct for keys
// outside it. A view that takes the hint may answer those keys as of one
// point in the invocation rather than as of each Get — sound for an agent,
// which is the only writer of its part while it runs.
type ReadAheader interface {
	ReadAhead(keys []any)
}

// PairFunc is the callback for part-local enumeration.
type PairFunc func(key, value any) (stop bool, err error)

// Table is a handle to one partitioned key/value table. Get/Put/Delete may be
// called from anywhere; the store routes them (marshalling across emulated
// partition boundaries where the implementation does so).
type Table interface {
	// Name is the table's name within its store.
	Name() string
	// Parts is the number of parts.
	Parts() int
	// Ubiquitous reports whether this is a ubiquitous table (single logical
	// part, replicated everywhere, quick to read; paper §III-A).
	Ubiquitous() bool
	// PartOf maps a key to the part that owns it.
	PartOf(key any) int
	// Get fetches the value for key.
	Get(key any) (any, bool, error)
	// Put stores value under key.
	Put(key, value any) error
	// Delete removes key.
	Delete(key any) error
	// Size reports the total number of pairs across all parts.
	Size() (int, error)

	// EnumerateParts runs the consumer's ProcessPart once per part —
	// collocated with the data, in parallel — and combines the per-part
	// results with Combine.
	EnumerateParts(pc PartConsumer) (any, error)

	// EnumeratePairs streams every pair of every part through the consumer
	// (paper §III-A: per-part setup, per-pair consume with early stop,
	// per-part finish whose results are combined with peers).
	EnumeratePairs(pc PairConsumer) (any, error)
}

// PartConsumer is the callback object for Table.EnumerateParts.
type PartConsumer interface {
	// ProcessPart runs collocated with one part.
	ProcessPart(sv ShardView) (any, error)
	// Combine merges the results of two parts.
	Combine(a, b any) (any, error)
}

// PairConsumer is the callback object for Table.EnumeratePairs.
type PairConsumer interface {
	// SetupPart is called once before the pairs of a part are consumed.
	SetupPart(part int) error
	// ConsumePair consumes one pair; returning stop=true ends that part's
	// enumeration early.
	ConsumePair(key, value any) (stop bool, err error)
	// FinishPart is called once after a part's pairs; its result is combined
	// with its peers via Combine.
	FinishPart(part int) (any, error)
	// Combine merges the results of two parts.
	Combine(a, b any) (any, error)
}

// Transactional is an optional Store capability: an ACID transaction over all
// the entries in a shard of co-placed tables (paper §IV-A, fault tolerance).
// If the agent returns an error, every write it made is rolled back.
type Transactional interface {
	RunTransaction(table string, part int, agent Agent) (any, error)
}

// Replicated is an optional Store capability for stores that replicate parts
// and support failure injection (used by the fault-tolerance evaluation).
type Replicated interface {
	// Replicas reports the replication factor.
	Replicas() int
	// FailPrimary kills the primary replica of the given part of the named
	// partition group; in-flight uncommitted writes on that shard are lost
	// and a surviving replica is promoted.
	FailPrimary(table string, part int) error
}

// Healer is an optional Store capability: restore full replication for the
// named table's partition group after primary failures (re-seeding dead
// replicas from the surviving ones). The engine invokes it before re-running
// a job from its last checkpoint.
type Healer interface {
	Heal(table string) error
}

// FailureSensor is an optional Store capability: a monotonic count of primary
// failovers (promotions) the store has performed. The engine samples it
// around steps to detect that a failover happened mid-job.
type FailureSensor interface {
	Failovers() int64
}

// TraceBinder is an optional Store capability for transports: the engine
// binds the current run's causal trace ID so RPC frames carry it and the
// client- and server-side RPC spans join the run's causal chains. Binding
// trace 0 clears the ambient context.
type TraceBinder interface {
	BindTrace(traceID uint64)
}

// Config captures table creation options.
type Config struct {
	// Parts is the number of parts; 0 means the store default.
	Parts int
	// Ubiquitous requests a ubiquitous table (overrides Parts).
	Ubiquitous bool
	// ConsistentWith names an existing table whose partitioning this table
	// must share (same part count ⇒ same key→part mapping under
	// codec.DefaultHasher).
	ConsistentWith string
	// Ordered asks the store to maintain this table's parts in key order so
	// PartView.EnumerateOrdered is cheap. Stores may ignore it (then ordered
	// enumeration sorts on demand).
	Ordered bool
}

// TableOption configures CreateTable.
type TableOption func(*Config)

// WithParts sets the part count.
func WithParts(n int) TableOption { return func(c *Config) { c.Parts = n } }

// Ubiquitous requests a ubiquitous table.
func Ubiquitous() TableOption { return func(c *Config) { c.Ubiquitous = true } }

// ConsistentWith requests partitioning consistent with an existing table.
func ConsistentWith(table string) TableOption {
	return func(c *Config) { c.ConsistentWith = table }
}

// Ordered asks for key-ordered part storage.
func Ordered() TableOption { return func(c *Config) { c.Ordered = true } }

// ApplyOptions resolves a Config from options, filling defaults from the
// store. Implementations share it so option semantics cannot drift.
func ApplyOptions(defaultParts int, opts []TableOption) Config {
	cfg := Config{}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Ubiquitous {
		cfg.Parts = 1
	} else if cfg.Parts <= 0 {
		cfg.Parts = defaultParts
	}
	return cfg
}

// CheckPart validates a part index.
func CheckPart(part, parts int) error {
	if part < 0 || part >= parts {
		return fmt.Errorf("%w: %d of %d", ErrBadPart, part, parts)
	}
	return nil
}
