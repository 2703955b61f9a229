package codec

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// goldenPoint is a fast-codec-registered type used to pin the extension tag
// assignment (first registration in this test binary gets tagExtBase).
type goldenPoint struct {
	X, Y int
}

func init() {
	RegisterFast(goldenPoint{}, FastCodec{
		Encode: func(e *Encoder, v any) error {
			p := v.(goldenPoint)
			e.Int(p.X)
			e.Int(p.Y)
			return nil
		},
		Decode: func(d *Decoder) (any, error) {
			var p goldenPoint
			var err error
			if p.X, err = d.Int(); err != nil {
				return nil, err
			}
			p.Y, err = d.Int()
			return p, err
		},
		Copy: func(v any) (any, error) { return v, nil },
	})
}

// TestGoldenWireFormat pins the tag layout and body encodings. These bytes
// are persisted in diskstore logs; a failure here means the wire format
// changed incompatibly.
func TestGoldenWireFormat(t *testing.T) {
	cases := []struct {
		name string
		v    any
		want []byte
	}{
		{"nil", nil, []byte{0x00}},
		{"false", false, []byte{0x01}},
		{"true", true, []byte{0x02}},
		{"int_zero", 0, []byte{0x03, 0x00}},
		{"int_one", 1, []byte{0x03, 0x02}},         // zigzag(1) = 2
		{"int_neg_one", -1, []byte{0x03, 0x01}},    // zigzag(-1) = 1
		{"int_150", 150, []byte{0x03, 0xAC, 0x02}}, // zigzag(150) = 300
		{"int64", int64(7), []byte{0x07, 0x0E}},    // zigzag(7) = 14
		{"uint64", uint64(300), []byte{0x0C, 0xAC, 0x02}},
		{"float64_one", 1.0, []byte{0x0E, 0x3F, 0xF0, 0, 0, 0, 0, 0, 0}},
		{"string", "hi", []byte{0x0F, 0x02, 'h', 'i'}},
		{"bytes", []byte{0xAA, 0xBB}, []byte{0x10, 0x02, 0xAA, 0xBB}},
		{"int_slice", []int{1, 2}, []byte{0x11, 0x02, 0x02, 0x04}},
		{"int32_slice", []int32{1, -2}, []byte{0x18, 0x02, 0x02, 0x03}},
		{"f64_slice", []float64{1.0}, []byte{0x12, 0x01, 0x3F, 0xF0, 0, 0, 0, 0, 0, 0}},
		{"str_slice", []string{"a"}, []byte{0x13, 0x01, 0x01, 'a'}},
		{"pair2", [2]int{3, 4}, []byte{0x14, 0x06, 0x08}},
		{"pair3", [3]int{1, 2, 3}, []byte{0x15, 0x02, 0x04, 0x06}},
		// Map keys are sorted, so the encoding is deterministic.
		{"map", map[string]any{"b": 2, "a": 1},
			[]byte{0x16, 0x02, 0x01, 'a', 0x03, 0x02, 0x01, 'b', 0x03, 0x04}},
		{"any_slice", []any{1, "x"}, []byte{0x17, 0x02, 0x03, 0x02, 0x0F, 0x01, 'x'}},
		// First RegisterFast in this binary → tagExtBase (0x40).
		{"ext", goldenPoint{X: 1, Y: -1}, []byte{0x40, 0x02, 0x01}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data, err := Encode(c.v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, c.want) {
				t.Fatalf("Encode(%v) = % X, want % X", c.v, data, c.want)
			}
			back, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, c.v) {
				t.Fatalf("round trip = %#v, want %#v", back, c.v)
			}
		})
	}
}

// TestGobFallbackFraming checks that unregistered-fast types travel as a
// length-prefixed gob frame and survive the round trip.
func TestGobFallbackFraming(t *testing.T) {
	type fallbackVal struct {
		N int
		S string
	}
	Register(fallbackVal{})
	v := fallbackVal{N: 9, S: "ok"}
	data, err := Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != tagGob {
		t.Fatalf("tag = 0x%02X, want tagGob (0x%02X)", data[0], tagGob)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, v) {
		t.Fatalf("round trip = %#v, want %#v", back, v)
	}
	// Gob frames nest inside containers thanks to the length prefix.
	nested := []any{1, v, "tail"}
	got, err := DeepCopy(nested)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, nested) {
		t.Fatalf("nested round trip = %#v, want %#v", got, nested)
	}
}

// TestPreEncodeRoundTrip checks the shared-bytes path stores use.
func TestPreEncodeRoundTrip(t *testing.T) {
	v := []float64{1, 2, 3}
	enc, err := PreEncode(v)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Size() != len(enc.Bytes()) || enc.Size() == 0 {
		t.Fatalf("Size() = %d, len(Bytes()) = %d", enc.Size(), len(enc.Bytes()))
	}
	if EncodedSize(enc) != enc.Size() {
		t.Fatalf("EncodedSize(Encoded) = %d, want %d", EncodedSize(enc), enc.Size())
	}
	back, n, err := RoundTrip(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != enc.Size() {
		t.Fatalf("RoundTrip size = %d, want %d", n, enc.Size())
	}
	if !reflect.DeepEqual(back, v) {
		t.Fatalf("RoundTrip = %#v, want %#v", back, v)
	}
}

// TestDeepCopyFastPathIsolation checks the non-serializing DeepCopy paths
// produce values that share no mutable memory with the original.
func TestDeepCopyFastPathIsolation(t *testing.T) {
	orig := map[string]any{"edges": []int{1, 2}, "rank": 0.5, "nested": []any{[]float64{9}}}
	cp, err := DeepCopy(orig)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp, orig) {
		t.Fatalf("copy = %#v, want %#v", cp, orig)
	}
	cp.(map[string]any)["edges"].([]int)[0] = 99
	cp.(map[string]any)["nested"].([]any)[0].([]float64)[0] = 99
	if orig["edges"].([]int)[0] != 1 || orig["nested"].([]any)[0].([]float64)[0] != 9 {
		t.Fatal("DeepCopy shares memory with original")
	}
}

// TestEncodedSizeMatchesEncode checks EncodedSize agrees with the actual
// encoding on both the fast and fallback paths.
func TestEncodedSizeMatchesEncode(t *testing.T) {
	for _, v := range []any{42, "hello", []int{1, 2, 3}, map[string]any{"k": 1.5},
		benchStruct{ID: 1, Rank: 2, Edges: []int{3}}} {
		data, err := Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodedSize(v); got != len(data) {
			t.Errorf("EncodedSize(%#v) = %d, want %d", v, got, len(data))
		}
	}
}

// buildValue deterministically constructs a value from fuzz bytes. It never
// produces empty slices or maps (gob normalizes those differently) or NaN
// (not DeepEqual to itself).
type valueBuilder struct {
	data []byte
	pos  int
}

func (b *valueBuilder) byte() byte {
	if b.pos >= len(b.data) {
		return 0
	}
	v := b.data[b.pos]
	b.pos++
	return v
}

func (b *valueBuilder) int() int {
	n := int(b.byte()) | int(b.byte())<<8
	if b.byte()&1 == 1 {
		return -n
	}
	return n
}

func (b *valueBuilder) float() float64 {
	f := float64(b.int()) / 7.0
	if math.IsNaN(f) {
		return 0
	}
	return f
}

func (b *valueBuilder) value(depth int) any {
	kind := b.byte() % 14
	if depth > 2 && kind >= 9 {
		kind %= 9 // cap container nesting
	}
	switch kind {
	case 0:
		return b.int()
	case 1:
		return b.byte()&1 == 1
	case 2:
		return b.float()
	case 3:
		return fmt.Sprintf("s%d", b.int())
	case 4:
		return int64(b.int())
	case 5:
		return uint64(b.int() & math.MaxInt)
	case 6:
		return [2]int{b.int(), b.int()}
	case 7:
		return [3]int{b.int(), b.int(), b.int()}
	case 8:
		return nil
	case 9:
		n := int(b.byte()%4) + 1
		out := make([]int, n)
		for i := range out {
			out[i] = b.int()
		}
		return out
	case 10:
		n := int(b.byte()%4) + 1
		out := make([]float64, n)
		for i := range out {
			out[i] = b.float()
		}
		return out
	case 11:
		n := int(b.byte()%3) + 1
		out := make(map[string]any, n)
		for i := 0; i < n; i++ {
			out[fmt.Sprintf("k%d", i)] = b.value(depth + 1)
		}
		return out
	case 13:
		n := int(b.byte()%4) + 1
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(b.int())
		}
		return out
	default:
		n := int(b.byte()%3) + 1
		out := make([]any, n)
		for i := range out {
			out[i] = b.value(depth + 1)
		}
		return out
	}
}

// FuzzRoundTrip builds arbitrary values of the wire types and asserts that
// the fast-path encoding and the forced gob-fallback encoding both decode
// back to reflect.DeepEqual values. It also feeds the raw fuzz input to
// Decode, which must reject or decode it without panicking.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 1, 2, 3})
	f.Add([]byte{9, 200, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{11, 2, 12, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0x16, 0x02, 0x01, 'a', 0x03, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode must never panic on arbitrary bytes.
		_, _ = Decode(data)

		v := (&valueBuilder{data: data}).value(0)
		fast, err := Encode(v)
		if err != nil {
			t.Fatalf("Encode(%#v): %v", v, err)
		}
		gotFast, err := Decode(fast)
		if err != nil {
			t.Fatalf("Decode(fast %#v): %v", v, err)
		}
		if !reflect.DeepEqual(gotFast, v) {
			t.Fatalf("fast round trip = %#v, want %#v", gotFast, v)
		}
		gobData, err := encodeGobOnly(v)
		if err != nil {
			// gob cannot represent a bare nil; anything else must encode.
			if v == nil {
				return
			}
			t.Fatalf("gob encode %#v: %v", v, err)
		}
		gotGob, err := Decode(gobData)
		if err != nil {
			t.Fatalf("Decode(gob %#v): %v", v, err)
		}
		if !reflect.DeepEqual(gotGob, v) {
			t.Fatalf("gob round trip = %#v, want %#v", gotGob, v)
		}
		if !reflect.DeepEqual(gotFast, gotGob) {
			t.Fatalf("fast (%#v) and gob (%#v) decodings disagree", gotFast, gotGob)
		}
		// DeepCopy must agree with the wire round trip.
		cp, err := DeepCopy(v)
		if err != nil {
			t.Fatalf("DeepCopy(%#v): %v", v, err)
		}
		if !reflect.DeepEqual(cp, v) {
			t.Fatalf("DeepCopy = %#v, want %#v", cp, v)
		}
	})
}
