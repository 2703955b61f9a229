package diskstore

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"ripple/internal/codec"
)

// bloomFilter is a standard double-hashed Bloom filter over encoded key
// bytes, one per SSTable run. Sized at ~10 bits per key it keeps the
// false-positive rate around 1%, so a Get that misses every run touches
// ~0 data blocks — the property the out-of-core read path depends on.
type bloomFilter struct {
	bits []uint64
	k    uint32
}

const bloomBitsPerKey = 10

func newBloom(n int) *bloomFilter {
	if n < 1 {
		n = 1
	}
	nbits := n * bloomBitsPerKey
	if nbits < 64 {
		nbits = 64
	}
	// k = ln2 * bits/key ≈ 7 for 10 bits per key.
	return &bloomFilter{bits: make([]uint64, (nbits+63)/64), k: 7}
}

// hash2 derives the double-hashing pair (h1, h2) from the key bytes.
func bloomHash(key []byte) (uint64, uint64) {
	h := fnv.New64a()
	_, _ = h.Write(key)
	h1 := h.Sum64()
	// A splitmix64 step decorrelates the second hash from the first.
	h2 := codec.Mix64(h1 + 0x9e3779b97f4a7c15)
	return h1, h2 | 1
}

func (b *bloomFilter) add(key []byte) {
	h1, h2 := bloomHash(key)
	nbits := uint64(len(b.bits)) * 64
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % nbits
		b.bits[bit/64] |= 1 << (bit % 64)
	}
}

func (b *bloomFilter) mayContain(key []byte) bool {
	h1, h2 := bloomHash(key)
	nbits := uint64(len(b.bits)) * 64
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % nbits
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// marshal lays the filter out as [4B k][4B nwords][8B word]... for the
// SSTable's bloom block.
func (b *bloomFilter) marshal() []byte {
	out := make([]byte, 8+8*len(b.bits))
	binary.BigEndian.PutUint32(out[0:4], b.k)
	binary.BigEndian.PutUint32(out[4:8], uint32(len(b.bits)))
	for i, w := range b.bits {
		binary.BigEndian.PutUint64(out[8+8*i:], w)
	}
	return out
}

func unmarshalBloom(buf []byte) (*bloomFilter, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("bloom block too short: %d bytes", len(buf))
	}
	k := binary.BigEndian.Uint32(buf[0:4])
	n := binary.BigEndian.Uint32(buf[4:8])
	if k == 0 || k > 64 || int(n) != (len(buf)-8)/8 {
		return nil, fmt.Errorf("bloom block header corrupt (k=%d nwords=%d len=%d)", k, n, len(buf))
	}
	bits := make([]uint64, n)
	for i := range bits {
		bits[i] = binary.BigEndian.Uint64(buf[8+8*i:])
	}
	return &bloomFilter{bits: bits, k: k}, nil
}
