package trace

import (
	"math/bits"

	"ripple/internal/codec"
)

// Deterministic span identity. The engine derives every ID from coordinates
// it already has — job name, run sequence, step, part — with the same
// fnv64a-then-splitmix64 (codec.Mix64) construction the chaos injector uses
// for its per-cell coin flips, so a given seed reproduces the same trace
// IDs, the same sampling decisions, and therefore the same sampled span set
// on every run. No randomness source is consulted and no ID state is shared
// between runs.

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// nonzero maps the one forbidden ID (0 means "no trace context") away.
func nonzero(x uint64) uint64 {
	if x == 0 {
		return 1
	}
	return x
}

// TraceID derives the trace ID for one job run: stable for a given
// (job, run, seed) triple and distinct across runs of the same job.
func TraceID(job string, run, seed int64) uint64 {
	h := fnvString(fnvOffset64, job)
	h = fnvUint64(h, uint64(run))
	h = fnvUint64(h, uint64(seed))
	return nonzero(codec.Mix64(h))
}

// SpanID derives the span ID for one (step, part) execution within a trace.
// The engine's conventions: (-1, -1) is the job root span, (0, -1) the load
// span, (step, -1) with step >= 1 a step span, (step, part) a sync
// part-compute span, and (0, part) a no-sync worker session.
func SpanID(traceID uint64, step, part int) uint64 {
	h := fnvUint64(fnvOffset64, traceID)
	h = fnvUint64(h, uint64(int64(step)))
	h = fnvUint64(h, uint64(int64(part)))
	return nonzero(codec.Mix64(h))
}

// EdgeID derives the span ID for a delivery edge between two spans.
func EdgeID(parent, child uint64) uint64 {
	h := fnvUint64(fnvOffset64, parent)
	h = fnvUint64(h, bits.RotateLeft64(child, 17))
	return nonzero(codec.Mix64(h))
}

// Sampler makes the head-sampling decision for a trace: a deterministic
// keep/drop derived from the trace ID and a seed, so two runs with the same
// seed sample the identical set of traces. A nil sampler keeps everything —
// instrumented code never needs nil checks. Sampling is head-only: the
// decision is made once per job run before any span is recorded. Fault,
// retry, and failover spans bypass it entirely (the tail policy — they are
// recorded unconditionally by the engine).
type Sampler struct {
	rate float64
	seed int64
}

// NewSampler builds a sampler keeping roughly rate (clamped to [0, 1]) of
// traces, decided per trace ID with the given seed.
func NewSampler(rate float64, seed int64) *Sampler {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return &Sampler{rate: rate, seed: seed}
}

// Sample reports whether the trace should be recorded. Nil samplers keep
// everything.
func (s *Sampler) Sample(traceID uint64) bool {
	if s == nil || s.rate >= 1 {
		return true
	}
	if s.rate <= 0 {
		return false
	}
	x := codec.Mix64(traceID ^ codec.Mix64(uint64(s.seed)))
	// Same uint64 -> [0,1) mapping as chaos.uniform: top 53 bits.
	return float64(x>>11)/float64(1<<53) < s.rate
}

// Rate reports the configured keep rate (1 for a nil sampler).
func (s *Sampler) Rate() float64 {
	if s == nil {
		return 1
	}
	return s.rate
}

// Seed reports the sampler's seed (0 for a nil sampler).
func (s *Sampler) Seed() int64 {
	if s == nil {
		return 0
	}
	return s.seed
}
