package netstore

// Part placement is rendezvous (highest-random-weight) hashing over the
// server list: every (part, server) pair gets a deterministic score and the
// part's replica set is the top-R servers by score. Placement is a pure
// function of part index and server count, so every client computes the same
// assignment with no coordination, and every table with the same part count
// lands its part i on the same servers — which is exactly the co-placement
// contract ShardView agents rely on.

import "ripple/internal/codec"

// splitmix64 is one step of the splitmix64 generator: the golden-ratio
// increment, then the repo's shared finalizer.
func splitmix64(x uint64) uint64 { return codec.Mix64(x + 0x9E3779B97F4A7C15) }

// placementScore ranks server s for part p.
func placementScore(part, server int) uint64 {
	return splitmix64(uint64(part)*0x9E3779B97F4A7C15 ^ uint64(server)*0xD1B54A32D192ED03)
}

// replicaSet returns the part's servers in preference order: the first entry
// is the part's home (primary), the first `replicas` entries form its replica
// set. Ties (impossible in practice, but cheap to pin down) break toward the
// lower server index so the order is total.
func replicaSet(part, servers, replicas int) []int {
	if replicas > servers {
		replicas = servers
	}
	order := make([]int, servers)
	for i := range order {
		order[i] = i
	}
	// Selection of the top `replicas` by score; server counts are single
	// digits, so the quadratic scan beats sorting machinery.
	for i := 0; i < replicas; i++ {
		best := i
		for j := i + 1; j < servers; j++ {
			si, sj := placementScore(part, order[best]), placementScore(part, order[j])
			if sj > si || (sj == si && order[j] < order[best]) {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	return order[:replicas]
}
