// Package codec provides the serialization, deep-copy, and key-hashing
// machinery shared by every Ripple store implementation.
//
// Ripple's data model follows the paper's Java heritage: keys and values are
// general objects ("a key and its associated value are general objects",
// §III-A). Stores that emulate distributed partitions marshal values when
// they cross a partition boundary and pass references locally; this package
// supplies that marshalling via encoding/gob, together with the default key
// hash that assigns keys to parts.
package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
)

// registry guards gob type registration, which panics on double-register.
var registry sync.Map // map[string]struct{}

func init() {
	// Composite built-ins commonly used as Ripple keys and values. Scalar
	// types (int, string, float64, …) have built-in gob support already.
	Register([2]int{})
	Register([3]int{})
	Register([]int{})
	Register([]int32{})
	Register([]float64{})
	Register([]string{})
	Register([]any{})
	Register(map[string]any{})
}

// Register makes a concrete type known to the codec so values of that type
// can cross partition boundaries. It is safe to call repeatedly and from
// multiple goroutines; duplicate registrations are ignored.
func Register(v any) {
	name := fmt.Sprintf("%T", v)
	if _, loaded := registry.LoadOrStore(name, struct{}{}); loaded {
		return
	}
	gob.Register(v)
}

// Encode marshals v into a fresh byte slice using the tagged wire format
// (see wire.go). Types without a fast path or registered FastCodec travel
// as an embedded gob stream, which is why Register is still required for
// arbitrary user types.
func Encode(v any) ([]byte, error) {
	e := getEncoder()
	defer putEncoder(e)
	if err := e.encodeAny(v); err != nil {
		return nil, err
	}
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	return out, nil
}

// Decode unmarshals a byte slice produced by Encode. Trailing bytes after
// the value are an error: a frame is exactly one value.
func Decode(data []byte) (any, error) {
	d := Decoder{data: data}
	v, err := d.decodeAny()
	if err != nil {
		return nil, err
	}
	if d.pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", errMalformed, len(data)-d.pos)
	}
	return v, nil
}

// wrapper lets gob carry the dynamic type of an arbitrary value on the
// fallback path.
type wrapper struct {
	V any
}

// Encoded wraps a value that has already been marshalled, so one encode can
// be shared between the profiler's size measurement and a store's boundary
// marshal. Stores detect it and perform only the decode half of the round
// trip; Encoder.Any splices the bytes verbatim when one is nested in a
// larger value.
type Encoded struct {
	data []byte
}

// PreEncode marshals v once and returns the reusable encoding.
func PreEncode(v any) (Encoded, error) {
	data, err := Encode(v)
	if err != nil {
		return Encoded{}, err
	}
	return Encoded{data: data}, nil
}

// Bytes returns the underlying encoding. Callers must not mutate it.
func (e Encoded) Bytes() []byte { return e.data }

// Size reports the encoded size in bytes.
func (e Encoded) Size() int { return len(e.data) }

// Decode reconstructs the wrapped value.
func (e Encoded) Decode() (any, error) { return Decode(e.data) }

// RoundTrip passes v through an encode/decode cycle using a pooled buffer,
// returning the reconstructed value and its encoded size. Stores use it to
// emulate a partition-boundary crossing without retaining the intermediate
// bytes. An Encoded value skips straight to the decode half.
func RoundTrip(v any) (any, int, error) {
	if enc, ok := v.(Encoded); ok {
		out, err := enc.Decode()
		return out, len(enc.data), err
	}
	e := getEncoder()
	defer putEncoder(e)
	if err := e.encodeAny(v); err != nil {
		return nil, 0, err
	}
	d := Decoder{data: e.buf}
	out, err := d.decodeAny()
	if err != nil {
		return nil, 0, err
	}
	if d.pos != len(e.buf) {
		return nil, 0, errMalformed
	}
	return out, len(e.buf), nil
}

// DeepCopy produces a value that shares no mutable memory with v. The common
// wire types are cloned structurally without serializing; registered
// FastCodecs supply their own Copy; everything else round-trips through the
// codec. Stores use it to emulate the isolation a real distributed store
// provides: a caller mutating a returned value must not corrupt the stored
// copy.
func DeepCopy(v any) (any, error) {
	switch x := v.(type) {
	case nil, bool, int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64,
		float32, float64, string, [2]int, [3]int:
		// Immutable through an interface value (arrays are copied when
		// boxed), so sharing is safe.
		return v, nil
	case []byte:
		out := make([]byte, len(x))
		copy(out, x)
		return out, nil
	case []int:
		out := make([]int, len(x))
		copy(out, x)
		return out, nil
	case []int32:
		out := make([]int32, len(x))
		copy(out, x)
		return out, nil
	case []float64:
		out := make([]float64, len(x))
		copy(out, x)
		return out, nil
	case []string:
		out := make([]string, len(x))
		copy(out, x)
		return out, nil
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, item := range x {
			c, err := DeepCopy(item)
			if err != nil {
				return nil, err
			}
			out[k] = c
		}
		return out, nil
	case []any:
		out := make([]any, len(x))
		for i, item := range x {
			c, err := DeepCopy(item)
			if err != nil {
				return nil, err
			}
			out[i] = c
		}
		return out, nil
	case Encoded:
		return x.Decode()
	default:
		if ent := lookupExt(reflect.TypeOf(v)); ent != nil && ent.fc.Copy != nil {
			return ent.fc.Copy(v)
		}
		out, _, err := RoundTrip(v)
		return out, err
	}
}

// EncodedSize reports the marshalled size of v in bytes, or 0 if v cannot be
// encoded. It exists for metrics, not correctness. Fast-path values go
// through a pooled buffer (returned afterwards); gob-fallback values stream
// through a counting writer so nothing is buffered at all.
func EncodedSize(v any) int {
	if enc, ok := v.(Encoded); ok {
		return len(enc.data)
	}
	if !hasFastPath(v) {
		var cw countingWriter
		if err := gob.NewEncoder(&cw).Encode(&wrapper{V: v}); err != nil {
			return 0
		}
		return 1 + uvarintLen(uint64(cw.n)) + cw.n
	}
	e := getEncoder()
	defer putEncoder(e)
	if err := e.encodeAny(v); err != nil {
		return 0
	}
	return len(e.buf)
}

// hasFastPath reports whether v encodes without the top-level gob fallback.
func hasFastPath(v any) bool {
	switch v.(type) {
	case nil, bool, int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64,
		float32, float64, string, []byte, []int, []int32, []float64, []string,
		[2]int, [3]int, map[string]any, []any, Encoded:
		return true
	}
	return lookupExt(reflect.TypeOf(v)) != nil
}

// Hasher maps a key to a non-negative hash. Stores place keys with
// DefaultHasher; table clients control the assignment of keys to parts by
// controlling the hash values of their keys (§III-A): a key type that
// implements KeyHasher supplies its own hash.
type Hasher interface {
	Hash(key any) uint64
}

// KeyHasher is implemented by key types that want to control their placement.
type KeyHasher interface {
	KeyHash() uint64
}

// DefaultHasher hashes the common key types directly and falls back to
// hashing the gob encoding for everything else.
type DefaultHasher struct{}

var _ Hasher = DefaultHasher{}

// Hash implements Hasher.
func (DefaultHasher) Hash(key any) uint64 {
	switch k := key.(type) {
	case KeyHasher:
		return k.KeyHash()
	case int:
		return hashUint64(uint64(k))
	case int8:
		return hashUint64(uint64(k))
	case int16:
		return hashUint64(uint64(k))
	case int32:
		return hashUint64(uint64(k))
	case int64:
		return hashUint64(uint64(k))
	case uint:
		return hashUint64(uint64(k))
	case uint8:
		return hashUint64(uint64(k))
	case uint16:
		return hashUint64(uint64(k))
	case uint32:
		return hashUint64(uint64(k))
	case uint64:
		return hashUint64(k)
	case float64:
		return hashUint64(math.Float64bits(k))
	case string:
		return hashString(k)
	case [2]int:
		return hashUint64(uint64(k[0])*0x9e3779b97f4a7c15 + uint64(k[1]))
	case [3]int:
		h := uint64(k[0])*0x9e3779b97f4a7c15 + uint64(k[1])
		return hashUint64(h*0x9e3779b97f4a7c15 + uint64(k[2]))
	default:
		data, err := Encode(key)
		if err != nil {
			// An unhashable, unencodable key degrades to a single part
			// rather than failing the whole job; placement is a
			// performance concern, not a correctness one.
			return 0
		}
		h := fnv.New64a()
		_, _ = h.Write(data)
		return h.Sum64()
	}
}

// hashUint64 is one splitmix64 step: cheap, well distributed, deterministic
// across runs (unlike Go's map hash).
func hashUint64(x uint64) uint64 { return Mix64(x + 0x9e3779b97f4a7c15) }

// Mix64 is the splitmix64 finalizer: a cheap avalanche that turns structured
// input (a counter, an fnv hash of coordinates) into uniformly spread bits.
// It is the one copy every deterministic decision in the repo uses — key
// placement, trace IDs, chaos coin flips, retry jitter, bloom probes — so
// the outputs of all of them are pinned by its test. The generator's
// golden-ratio increment, 0x9e3779b97f4a7c15, is not included; callers
// that step the generator add it.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// PartOf maps a key to one of n parts using h. n must be positive.
func PartOf(h Hasher, key any, n int) int {
	if n <= 0 {
		return 0
	}
	return int(h.Hash(key) % uint64(n))
}

// OrderedKey is implemented by key types that define their own sort order for
// needs-order jobs. Keys without it are ordered by CompareKeys' built-in
// rules.
type OrderedKey interface {
	CompareKey(other any) int
}

// CompareKeys imposes a total order over keys of the common built-in types
// (and OrderedKey implementors). Numeric types order numerically, strings
// lexicographically, and mixed/unknown types order by their encoded bytes so
// the order is still deterministic.
func CompareKeys(a, b any) int {
	if oa, ok := a.(OrderedKey); ok {
		return oa.CompareKey(b)
	}
	if na, oka := numericKey(a); oka {
		if nb, okb := numericKey(b); okb {
			switch {
			case na < nb:
				return -1
			case na > nb:
				return 1
			default:
				return 0
			}
		}
	}
	if sa, ok := a.(string); ok {
		if sb, ok := b.(string); ok {
			switch {
			case sa < sb:
				return -1
			case sa > sb:
				return 1
			default:
				return 0
			}
		}
	}
	if pa, ok := a.([2]int); ok {
		if pb, ok := b.([2]int); ok {
			if pa[0] != pb[0] {
				if pa[0] < pb[0] {
					return -1
				}
				return 1
			}
			if pa[1] != pb[1] {
				if pa[1] < pb[1] {
					return -1
				}
				return 1
			}
			return 0
		}
	}
	return bytes.Compare(encodeForCompare(a), encodeForCompare(b))
}

func numericKey(v any) (float64, bool) {
	switch n := v.(type) {
	case int:
		return float64(n), true
	case int8:
		return float64(n), true
	case int16:
		return float64(n), true
	case int32:
		return float64(n), true
	case int64:
		return float64(n), true
	case uint:
		return float64(n), true
	case uint8:
		return float64(n), true
	case uint16:
		return float64(n), true
	case uint32:
		return float64(n), true
	case uint64:
		return float64(n), true
	case float32:
		return float64(n), true
	case float64:
		return n, true
	default:
		return 0, false
	}
}

func encodeForCompare(v any) []byte {
	data, err := Encode(v)
	if err != nil {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], DefaultHasher{}.Hash(v))
		return buf[:]
	}
	return data
}
