package workload

import (
	"hash/fnv"
	"math/rand"

	"ripple/internal/codec"
)

// DeriveRand builds a private, decorrelated *rand.Rand from a base seed and
// a stream label. Generators in this package take an explicit source instead
// of the global math/rand one, so concurrent generation (one tenant per
// stream) neither contends on a shared lock nor perturbs another stream's
// sequence — the same (seed, stream) pair always yields the same input.
//
// The label is folded into the seed with FNV-1a and the result is mixed
// through a splitmix64 round, so nearby seeds and similar labels still land
// far apart in the generator's state space.
func DeriveRand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(stream))
	z := codec.Mix64((uint64(seed) ^ h.Sum64()) + 0x9e3779b97f4a7c15)
	return rand.New(rand.NewSource(int64(z)))
}
