// Package ebsp implements Ripple's key/value extended bulk-synchronous-
// parallel (K/V EBSP) programming model and its execution engine — the
// paper's primary contribution (§II, §IV).
//
// A job is a set of components identified by keys. Execution alternates
// compute steps with synchronization barriers across which all messages flow;
// in each step only the enabled components run (selective enablement), and a
// job whose declared properties allow it can run with no barriers at all.
// Component state lives in key/value tables behind the narrow kvstore SPI;
// messages move in spill batches through a private transport table (or a
// queue set, for no-sync execution).
package ebsp

import (
	"errors"
	"fmt"

	"ripple/internal/codec"
	"ripple/internal/kvstore"
)

// Validation and execution errors.
var (
	// ErrNoCompute is returned for a job without a Compute.
	ErrNoCompute = errors.New("ebsp: job has no Compute")
	// ErrBadJob is returned for other job specification problems.
	ErrBadJob = errors.New("ebsp: invalid job")
	// ErrPropertyViolated is returned when observed behaviour contradicts a
	// declared job property.
	ErrPropertyViolated = errors.New("ebsp: declared job property violated")
	// ErrNoSyncIneligible is returned when a strategy override requests
	// no-sync execution but the job's properties do not permit it.
	ErrNoSyncIneligible = errors.New("ebsp: job not eligible for no-sync execution")
)

// Compute is the component execution function (paper Listing 2). Compute is
// invoked once per enabled component per step; it reads its inputs from and
// delivers its outputs to the Context, and returns the continue signal:
// true to be enabled in the following step even without messages.
type Compute interface {
	Compute(ctx *Context) bool
}

// ComputeFunc adapts a function to the Compute interface.
type ComputeFunc func(ctx *Context) bool

// Compute implements Compute.
func (f ComputeFunc) Compute(ctx *Context) bool { return f(ctx) }

// MessageCombiner merges two messages destined for the same component in the
// same step (paper: combine2msgs). The platform may apply it pairwise at
// arbitrary times and places, so it must be associative and commutative.
// Implement it on the job's Compute object or set Job.Combiner.
type MessageCombiner interface {
	CombineMessages(key, m1, m2 any) any
}

// StateCombiner merges conflicting newly created component states (paper:
// combine2states).
type StateCombiner interface {
	CombineStates(key, s1, s2 any) any
}

// Aggregator is one named aggregation, Pregel-style (paper §II). Compute
// invocations feed values in during a step; the combined result is readable
// in the following step. Combine must be associative and commutative.
type Aggregator interface {
	// Zero is the identity input.
	Zero() any
	// Combine merges two partial aggregations.
	Combine(a, b any) any
}

// Aborter lets a client stop a job early; it is consulted between steps with
// the aggregate results of the step just finished (paper §II: "invoked
// between steps it returns a boolean indicating whether execution should be
// stopped immediately").
type Aborter interface {
	ShouldAbort(step int, aggregates map[string]any) bool
}

// AborterFunc adapts a function to the Aborter interface.
type AborterFunc func(step int, aggregates map[string]any) bool

// ShouldAbort implements Aborter.
func (f AborterFunc) ShouldAbort(step int, aggregates map[string]any) bool {
	return f(step, aggregates)
}

// Loader computes a job's initial condition from some source (paper §II): an
// initial message set, initial component states, additional enabled
// components, and initial aggregator inputs.
type Loader interface {
	Load(lc *LoadContext) error
}

// LoaderFunc adapts a function to the Loader interface.
type LoaderFunc func(lc *LoadContext) error

// Load implements Loader.
func (f LoaderFunc) Load(lc *LoadContext) error { return f(lc) }

// Exporter consumes one key/value pair of job output — either the final
// contents of a state table or direct job output (paper §II).
type Exporter interface {
	Export(key, value any) error
}

// ExporterFunc adapts a function to the Exporter interface.
type ExporterFunc func(key, value any) error

// Export implements Exporter.
func (f ExporterFunc) Export(key, value any) error { return f(key, value) }

// Properties are the declared job properties of §II-A. The engine derives
// no-agg and no-client-sync itself (they are visible in the job spec); the
// others must be declared because they constrain behaviour the engine cannot
// check up front. Declaring a property the job violates yields undefined
// results (the engine reports ErrPropertyViolated where it can detect it).
type Properties struct {
	// NeedsOrder: collocated compute invocations must be ordered by key.
	NeedsOrder bool
	// NoContinue: the compute method always returns the negative signal.
	NoContinue bool
	// OneMsg: for a given destination key and step there is at most one
	// message.
	OneMsg bool
	// RareState: the bandwidth of state access is much less than the
	// bandwidth of messaging, so computes may run away from their state.
	RareState bool
	// NoStepOrder (paper: no-ss-order): compute invocations for a given key
	// need not be in step order.
	NoStepOrder bool
	// Incremental: messages for a component can be delivered in any order
	// and grouping, with no regard for steps, provided per-(sender,receiver)
	// order is preserved.
	Incremental bool
	// Deterministic: the compute function is deterministic, enabling
	// replay-based fault recovery.
	Deterministic bool
}

// Job specifies one K/V EBSP job (paper Listing 1, as an idiomatic Go spec
// struct). Zero values are meaningful everywhere: a job needs only a Compute
// and some source of initial work to run.
type Job struct {
	// Name labels the job; it namespaces the engine's private tables.
	Name string

	// StateTables names the key/value tables factoring the components'
	// state, addressed by index from Context.ReadState et al. Missing tables
	// are created by the engine, consistently partitioned with the placement
	// table. All must be co-placed.
	StateTables []string

	// Compute is the component execution function. If it also implements
	// MessageCombiner or StateCombiner those are used unless the explicit
	// fields below are set.
	Compute Compute

	// Combiner pairwise-combines messages for one destination key and step.
	Combiner MessageCombiner

	// StateCombiner merges conflicting created states.
	StateCombiner StateCombiner

	// Aggregators are the job's individual aggregators, by name.
	Aggregators map[string]Aggregator

	// ReferenceTable names the table holding immutable broadcast data,
	// readable cheaply by every compute invocation. Typically ubiquitous.
	ReferenceTable string

	// Loaders provide the initial condition.
	Loaders []Loader

	// Exporters, keyed by state table name, receive the final contents of
	// those tables after the job completes.
	Exporters map[string]Exporter

	// DirectOutput receives direct job output pairs as they are produced.
	DirectOutput Exporter

	// Aborter, if set, is consulted between steps for early termination.
	Aborter Aborter

	// Properties are the declared special-case properties (§II-A).
	Properties Properties

	// Placement names the table whose partitioning drives the computation:
	// one execution slot per part; a ubiquitous table cannot place a job.
	// Defaults to the first existing partitioned state table, then to the
	// first state table still to be created, then to an engine-created
	// private table with PartsHint parts.
	Placement string

	// PartsHint sizes a placement table the engine creates. 0 means the
	// store default.
	PartsHint int

	// MaxSteps bounds execution; 0 means unbounded (the job runs until no
	// components are enabled or the aborter fires).
	MaxSteps int
}

// combiner resolves the effective message combiner.
func (j *Job) combiner() MessageCombiner {
	if j.Combiner != nil {
		return j.Combiner
	}
	if mc, ok := j.Compute.(MessageCombiner); ok {
		return mc
	}
	return nil
}

// stateCombiner resolves the effective state combiner.
func (j *Job) stateCombiner() StateCombiner {
	if j.StateCombiner != nil {
		return j.StateCombiner
	}
	if sc, ok := j.Compute.(StateCombiner); ok {
		return sc
	}
	return nil
}

// validate performs the static checks.
func (j *Job) validate() error {
	if j.Compute == nil {
		return ErrNoCompute
	}
	seen := make(map[string]bool, len(j.StateTables))
	for _, name := range j.StateTables {
		if name == "" {
			return fmt.Errorf("%w: empty state table name", ErrBadJob)
		}
		if seen[name] {
			return fmt.Errorf("%w: duplicate state table %q", ErrBadJob, name)
		}
		seen[name] = true
	}
	for name := range j.Exporters {
		if !seen[name] {
			return fmt.Errorf("%w: exporter for unknown state table %q", ErrBadJob, name)
		}
	}
	if j.MaxSteps < 0 {
		return fmt.Errorf("%w: negative MaxSteps", ErrBadJob)
	}
	if j.PartsHint < 0 {
		return fmt.Errorf("%w: negative PartsHint", ErrBadJob)
	}
	return nil
}

// Strategy is the execution plan derived from a job's properties (§II-A):
// which of the five optimization areas apply.
type Strategy struct {
	// Sort: collocated invocations are ordered by key (needs-order).
	Sort bool
	// Collect: multiple messages for a component+step are collected into a
	// value list before invocation. ¬(one-msg ∧ no-continue) requires it.
	Collect bool
	// RunAnywhere: compute invocations may run away from their state via
	// work stealing (no-collect ∧ rare-state).
	RunAnywhere bool
	// Sync: execution uses synchronization barriers between steps. The
	// no-sync condition is (no-collect ∧ no-ss-order ∨ incremental) ∧
	// no-agg ∧ no-client-sync.
	Sync bool
	// FastRecovery: replay-based fault recovery (deterministic), used when
	// the store offers per-shard transactions.
	FastRecovery bool
}

// planFor derives the Strategy from the job (§II-A implications).
func planFor(j *Job) Strategy {
	noAgg := len(j.Aggregators) == 0 // detected, not declared
	noClientSync := j.Aborter == nil // detected, not declared
	p := j.Properties
	noCollect := p.OneMsg && p.NoContinue
	s := Strategy{
		Sort:         p.NeedsOrder,
		Collect:      !noCollect,
		RunAnywhere:  noCollect && p.RareState,
		Sync:         true,
		FastRecovery: p.Deterministic,
	}
	if (noCollect && p.NoStepOrder || p.Incremental) && noAgg && noClientSync {
		s.Sync = false
	}
	return s
}

// Clamp constrains an overridden strategy so it can only be more conservative
// than the derived plan: sorting and collecting can be switched on, work
// stealing and barrier removal switched off, fast recovery switched off.
// Unsafe directions are reverted to the derived plan.
func (s Strategy) Clamp(derived Strategy) Strategy {
	out := s
	if derived.Sort {
		out.Sort = true // job needs order; cannot drop
	}
	if derived.Collect {
		out.Collect = true // job needs collection; cannot drop
	}
	if !derived.RunAnywhere {
		out.RunAnywhere = false // job pins computes to their state
	}
	if derived.Sync {
		out.Sync = true // job needs barriers; cannot drop
	}
	if !derived.FastRecovery {
		out.FastRecovery = false // non-deterministic jobs cannot replay
	}
	return out
}

// Result is what a job execution yields (paper §II): final aggregator
// results and the number of steps taken. Final component states are read
// through the K/V store or the job's Exporters; direct job output goes to
// the job's DirectOutput exporter.
type Result struct {
	// Steps is the number of compute steps executed.
	Steps int
	// Aggregates holds the final aggregator results by name.
	Aggregates map[string]any
	// Aborted reports whether the job's aborter stopped it.
	Aborted bool
	// Strategy is the execution plan that ran.
	Strategy Strategy
	// Recoveries counts fault-recovery replays performed.
	Recoveries int
}

// internal message kinds carried in spills.
const (
	kindData     = byte(0) // ordinary message: Val is the payload
	kindContinue = byte(1) // continue signal turned into a message (§IV-A)
	kindCreate   = byte(2) // state creation request: Val is createPayload
)

// envelope is one in-flight message. Trace and Span carry the causal
// context of the producing execution (the job run's trace ID and the
// sender's span ID); both are zero when the run is unsampled, in which case
// the wire codec emits the exact pre-trace byte layout (see wire.go).
type envelope struct {
	Dst   any
	Val   any
	Kind  byte
	Src   int    // source part (-1 for loader-injected)
	Seq   int    // per-source sequence for deterministic delivery order
	Trace uint64 // trace ID of the producing job run (0 = unsampled)
	Span  uint64 // span ID of the producing execution (0 = unsampled)
}

// createPayload carries a CreateState request.
type createPayload struct {
	Tab   int
	State any
}

// spillKey locates one spill batch: all messages from part Src to part Dst
// delivered at step Step. Its KeyHash pins it to the destination part.
type spillKey struct {
	Step int
	Dst  int
	Src  int
}

// KeyHash implements codec.KeyHasher: a spill is placed in its destination
// part (Dst < parts, so hash % parts == Dst under any part count the
// transport table can have).
func (k spillKey) KeyHash() uint64 { return uint64(k.Dst) }

// queueMsg wraps an envelope with its termination-detection weight for
// no-sync execution.
type queueMsg struct {
	Env    envelope
	Weight uint64
}

func init() {
	codec.Register(envelope{})
	codec.Register([]envelope{})
	codec.Register(createPayload{})
	codec.Register(spillKey{})
	codec.Register(queueMsg{})
}

// requireCoPlaced verifies that two tables can be joined by key.
func requireCoPlaced(a, b kvstore.Table) error {
	if a.Parts() != b.Parts() && !b.Ubiquitous() {
		return fmt.Errorf("%w: tables %q (%d parts) and %q (%d parts) are not co-placed",
			ErrBadJob, a.Name(), a.Parts(), b.Name(), b.Parts())
	}
	return nil
}
