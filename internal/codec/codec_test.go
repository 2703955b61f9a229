package codec

import (
	"math"
	"testing"
	"testing/quick"
)

type customKey struct {
	A int
	B string
}

type vertexLike struct {
	ID    int
	Rank  float64
	Edges []int
}

func init() {
	Register(customKey{})
	Register(vertexLike{})
	Register([]int{})
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []any{
		int(42),
		int(-7),
		int64(1 << 40),
		uint64(math.MaxUint64),
		"hello world",
		"",
		3.14159,
		true,
		[2]int{3, 9},
		customKey{A: 1, B: "x"},
		vertexLike{ID: 5, Rank: 0.25, Edges: []int{1, 2, 3}},
	}
	for _, in := range cases {
		data, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		out, err := Decode(data)
		if err != nil {
			t.Fatalf("Decode(%v): %v", in, err)
		}
		switch want := in.(type) {
		case vertexLike:
			got, ok := out.(vertexLike)
			if !ok {
				t.Fatalf("Decode(%v) type = %T", in, out)
			}
			if got.ID != want.ID || got.Rank != want.Rank || len(got.Edges) != len(want.Edges) {
				t.Errorf("round trip %v => %v", want, got)
			}
		default:
			if out != in {
				t.Errorf("round trip %v (%T) => %v (%T)", in, in, out, out)
			}
		}
	}
}

func TestEncodeNil(t *testing.T) {
	v, err := DeepCopy(nil)
	if err != nil {
		t.Fatalf("DeepCopy(nil): %v", err)
	}
	if v != nil {
		t.Errorf("DeepCopy(nil) = %v, want nil", v)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte{0x01, 0x02, 0x03}); err == nil {
		t.Error("Decode(garbage) succeeded, want error")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) succeeded, want error")
	}
}

func TestDeepCopyIsolation(t *testing.T) {
	orig := vertexLike{ID: 1, Rank: 0.5, Edges: []int{10, 20}}
	cp, err := DeepCopy(orig)
	if err != nil {
		t.Fatalf("DeepCopy: %v", err)
	}
	got := cp.(vertexLike)
	got.Edges[0] = 999
	if orig.Edges[0] != 10 {
		t.Error("DeepCopy shares edge slice memory with original")
	}
}

func TestDeepCopySliceValue(t *testing.T) {
	orig := []int{1, 2, 3}
	cp, err := DeepCopy(orig)
	if err != nil {
		t.Fatalf("DeepCopy: %v", err)
	}
	got := cp.([]int)
	got[0] = 42
	if orig[0] != 1 {
		t.Error("DeepCopy shares slice memory")
	}
}

func TestRegisterIdempotent(t *testing.T) {
	// Double registration must not panic.
	Register(customKey{})
	Register(customKey{})
}

func TestDefaultHasherDeterministic(t *testing.T) {
	h := DefaultHasher{}
	keys := []any{1, 2, "a", "b", [2]int{1, 2}, int64(7), uint32(9), 2.5}
	for _, k := range keys {
		if h.Hash(k) != h.Hash(k) {
			t.Errorf("Hash(%v) not deterministic", k)
		}
	}
}

func TestDefaultHasherIntAndInt64Agree(t *testing.T) {
	h := DefaultHasher{}
	for _, n := range []int{0, 1, -1, 12345, -99999} {
		if h.Hash(n) != h.Hash(int64(n)) {
			t.Errorf("Hash(int %d) != Hash(int64 %d)", n, n)
		}
	}
}

func TestDefaultHasherSpread(t *testing.T) {
	h := DefaultHasher{}
	const parts = 8
	counts := make([]int, parts)
	const n = 10000
	for i := 0; i < n; i++ {
		counts[PartOf(h, i, parts)]++
	}
	for p, c := range counts {
		// Expect roughly n/parts = 1250 per part; allow wide tolerance.
		if c < n/parts/2 || c > n/parts*2 {
			t.Errorf("part %d got %d of %d keys — poor spread", p, c, n)
		}
	}
}

type hashControlled struct{ Target uint64 }

func (h hashControlled) KeyHash() uint64 { return h.Target }

func TestKeyHasherControlsPlacement(t *testing.T) {
	h := DefaultHasher{}
	for parts := 1; parts <= 12; parts++ {
		for want := 0; want < parts; want++ {
			k := hashControlled{Target: uint64(want)}
			if got := PartOf(h, k, parts); got != want {
				t.Fatalf("PartOf(target %d, %d parts) = %d", want, parts, got)
			}
		}
	}
}

func TestPartOfDegenerate(t *testing.T) {
	h := DefaultHasher{}
	if got := PartOf(h, 5, 0); got != 0 {
		t.Errorf("PartOf with 0 parts = %d, want 0", got)
	}
	if got := PartOf(h, 5, -3); got != 0 {
		t.Errorf("PartOf with negative parts = %d, want 0", got)
	}
}

func TestCompareKeysInts(t *testing.T) {
	cases := []struct {
		a, b any
		want int
	}{
		{1, 2, -1},
		{2, 1, 1},
		{5, 5, 0},
		{int64(3), 4, -1},
		{uint32(9), int(9), 0},
		{"apple", "banana", -1},
		{"pear", "pear", 0},
		{"z", "a", 1},
		{[2]int{1, 2}, [2]int{1, 3}, -1},
		{[2]int{2, 0}, [2]int{1, 9}, 1},
		{[2]int{4, 4}, [2]int{4, 4}, 0},
		{1.5, 2, -1},
	}
	for _, c := range cases {
		if got := CompareKeys(c.a, c.b); got != c.want {
			t.Errorf("CompareKeys(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

type reverseOrdered int

func (r reverseOrdered) CompareKey(other any) int {
	o := other.(reverseOrdered)
	switch {
	case r > o:
		return -1
	case r < o:
		return 1
	default:
		return 0
	}
}

func TestCompareKeysOrderedKeyOverride(t *testing.T) {
	if got := CompareKeys(reverseOrdered(1), reverseOrdered(2)); got != 1 {
		t.Errorf("OrderedKey override ignored: got %d, want 1", got)
	}
}

func TestCompareKeysTotalOrderProperty(t *testing.T) {
	// Antisymmetry and transitivity-ish sanity over random int keys.
	f := func(a, b int) bool {
		return CompareKeys(a, b) == -CompareKeys(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodePropertyInts(t *testing.T) {
	f := func(x int64) bool {
		data, err := Encode(x)
		if err != nil {
			return false
		}
		out, err := Decode(data)
		if err != nil {
			return false
		}
		return out == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodePropertyStrings(t *testing.T) {
	f := func(s string) bool {
		data, err := Encode(s)
		if err != nil {
			return false
		}
		out, err := Decode(data)
		if err != nil {
			return false
		}
		return out == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodedSize(t *testing.T) {
	if n := EncodedSize("hello"); n <= 0 {
		t.Errorf("EncodedSize = %d, want > 0", n)
	}
	big := EncodedSize(vertexLike{ID: 1, Edges: make([]int, 1000)})
	small := EncodedSize(vertexLike{ID: 1, Edges: []int{1}})
	if big <= small {
		t.Errorf("EncodedSize(big)=%d <= EncodedSize(small)=%d", big, small)
	}
}

// Mix64's outputs are on disk (bloom filters) and in every seeded replay
// (trace IDs, chaos schedules, retry jitter): they must never change.
func TestMix64Pinned(t *testing.T) {
	for _, tc := range []struct{ in, want uint64 }{
		{0, 0},
		{1, 0x5692161d100b05e5},
		{0x9e3779b97f4a7c15, 0xe220a8397b1dcdaf}, // splitmix64's first output from state 0
		{0x12345678, 0x99a584650fae6a61},
		{^uint64(0), 0xb4d055fcf2cbbd7b},
	} {
		if got := Mix64(tc.in); got != tc.want {
			t.Errorf("Mix64(%#x) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
}

func TestHashUint64Avalanche(t *testing.T) {
	// Flipping one input bit should change many output bits on average.
	base := hashUint64(0x12345678)
	diffBits := 0
	for bit := 0; bit < 64; bit++ {
		h := hashUint64(0x12345678 ^ (1 << bit))
		x := base ^ h
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	avg := float64(diffBits) / 64
	if avg < 16 || avg > 48 {
		t.Errorf("avalanche average %f bits, want roughly 32", avg)
	}
}

func TestDefaultHasherAllScalarTypes(t *testing.T) {
	h := DefaultHasher{}
	cases := []any{
		int8(3), int16(5), int32(9), uint(1), uint8(2), uint16(4), uint64(8),
		3.5, "s", [3]int{1, 2, 3},
	}
	for _, k := range cases {
		if h.Hash(k) != h.Hash(k) {
			t.Errorf("Hash(%T) unstable", k)
		}
	}
}

func TestDefaultHasherFallbackEncodes(t *testing.T) {
	// An arbitrary registered struct goes through the gob+FNV fallback.
	h := DefaultHasher{}
	k1 := customKey{A: 1, B: "x"}
	k2 := customKey{A: 2, B: "x"}
	if h.Hash(k1) != h.Hash(k1) {
		t.Error("fallback hash unstable")
	}
	if h.Hash(k1) == h.Hash(k2) {
		t.Error("fallback hash collides trivially")
	}
}

func TestDefaultHasherUnencodableDegrades(t *testing.T) {
	// A channel cannot be encoded: hashing degrades to part 0 rather than
	// failing the job.
	h := DefaultHasher{}
	if got := h.Hash(make(chan int)); got != 0 {
		t.Errorf("unencodable key hash = %d, want 0", got)
	}
}

func TestCompareKeysNumericCross(t *testing.T) {
	pairs := []struct {
		a, b any
		want int
	}{
		{int8(1), int16(2), -1},
		{uint8(200), int64(100), 1},
		{float32(1.5), 1.5, 0},
		{uint16(7), uint(7), 0},
	}
	for _, p := range pairs {
		if got := CompareKeys(p.a, p.b); got != p.want {
			t.Errorf("CompareKeys(%v, %v) = %d, want %d", p.a, p.b, got, p.want)
		}
	}
}

func TestCompareKeysFallbackDeterministic(t *testing.T) {
	// Mixed/unknown types order by encoded bytes — any stable total order.
	a := customKey{A: 1, B: "a"}
	b := customKey{A: 2, B: "b"}
	x := CompareKeys(a, b)
	if x == 0 {
		t.Error("distinct keys compare equal")
	}
	if CompareKeys(b, a) != -x {
		t.Error("fallback order not antisymmetric")
	}
	if CompareKeys(a, a) != 0 {
		t.Error("key not equal to itself")
	}
	// Mixed string-vs-struct also hits the fallback.
	if CompareKeys("zzz", a) == 0 {
		t.Error("mixed comparison degenerate")
	}
}
