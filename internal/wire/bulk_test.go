package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// TestBulkSliceCodecsMatchElementWise: the slice codecs move a whole slice
// as one byte view on a little-endian host and element by element
// elsewhere; the two must agree byte for byte on the wire and value for
// value (bit for bit: NaN payloads included) after a round trip, for every
// element kind and for empty, one-element and longer slices.
func TestBulkSliceCodecsMatchElementWise(t *testing.T) {
	nan := math.Float64frombits(0x7ff8dead0000beef) // quiet NaN with a payload
	nan32 := math.Float32frombits(0x7fc0beef)
	type codec struct {
		name string
		val  any
		put  func(e *Encoder, v any)
		get  func(d *Decoder) any
		each func(e *Encoder, v any) // element-wise reference encoding
	}
	var cases []codec
	add := func(name string, put func(*Encoder, any), get func(*Decoder) any, each func(*Encoder, any), vals ...any) {
		for _, v := range vals {
			cases = append(cases, codec{name, v, put, get, each})
		}
	}
	add("float64", func(e *Encoder, v any) { e.PutFloat64s(v.([]float64)) }, func(d *Decoder) any { return d.Float64s() },
		func(e *Encoder, v any) {
			for _, x := range v.([]float64) {
				e.PutFloat64(x)
			}
		}, []float64{}, []float64{nan}, []float64{1.5, math.Copysign(0, -1), nan, math.Inf(-1), math.MaxFloat64, 5e-324})
	add("float32", func(e *Encoder, v any) { e.PutFloat32s(v.([]float32)) }, func(d *Decoder) any { return d.Float32s() },
		func(e *Encoder, v any) {
			for _, x := range v.([]float32) {
				e.PutFloat32(x)
			}
		}, []float32{}, []float32{nan32}, []float32{1.5, -0.25, nan32, float32(math.Inf(1))})
	add("int32", func(e *Encoder, v any) { e.PutInt32s(v.([]int32)) }, func(d *Decoder) any { return d.Int32s() },
		func(e *Encoder, v any) {
			for _, x := range v.([]int32) {
				e.buf = append(e.buf, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
			}
		}, []int32{}, []int32{-1}, []int32{math.MinInt32, -2, 0, 7, math.MaxInt32})
	add("int64", func(e *Encoder, v any) { e.PutInt64s(v.([]int64)) }, func(d *Decoder) any { return d.Int64s() },
		func(e *Encoder, v any) {
			for _, x := range v.([]int64) {
				e.PutInt64(x)
			}
		}, []int64{}, []int64{-1}, []int64{math.MinInt64, -2, 0, 7, math.MaxInt64})
	add("complex128", func(e *Encoder, v any) { e.PutComplex128s(v.([]complex128)) }, func(d *Decoder) any { return d.Complex128s() },
		func(e *Encoder, v any) {
			for _, x := range v.([]complex128) {
				e.PutComplex128(x)
			}
		}, []complex128{}, []complex128{complex(nan, 1)}, []complex128{complex(1, -2), complex(nan, math.Inf(1)), 0})

	host := hostLittleEndian
	if !host {
		t.Log("big-endian host: the bulk path is never taken; checking the element-wise path only")
	}
	defer func() { hostLittleEndian = host }()
	for _, c := range cases {
		n := reflect.ValueOf(c.val).Len()
		ref := NewEncoder(nil)
		ref.PutUvarint(uint64(n))
		c.each(ref, c.val)
		for _, bulk := range []bool{true, false} {
			if bulk && !host {
				continue
			}
			hostLittleEndian = bulk
			e := NewEncoder(nil)
			c.put(e, c.val)
			if !bytes.Equal(e.Bytes(), ref.Bytes()) {
				t.Errorf("%s len %d bulk=%v: encoding % x, element-wise reference % x", c.name, n, bulk, e.Bytes(), ref.Bytes())
			}
			// Decode at an odd offset too: the source of the byte view
			// need not be aligned.
			for _, pad := range []int{0, 1} {
				d := NewDecoder(append(make([]byte, pad), ref.Bytes()...))
				d.off = pad
				got := c.get(d)
				again := NewEncoder(nil)
				c.put(again, got)
				if d.Err() != nil || d.Remaining() != 0 || !bytes.Equal(again.Bytes(), ref.Bytes()) {
					t.Errorf("%s len %d bulk=%v pad %d: round trip gave %v (err %v, %d bytes left), want %v",
						c.name, n, bulk, pad, got, d.Err(), d.Remaining(), c.val)
				}
			}
			// A length prefix beyond the bytes present is corruption, not
			// an allocation.
			short := NewDecoder(ref.Bytes()[:len(ref.Bytes())/2])
			if n > 0 {
				if got := c.get(short); short.Err() == nil {
					t.Errorf("%s len %d bulk=%v: truncated input decoded as %v", c.name, n, bulk, got)
				}
			}
		}
	}
}

func BenchmarkPutFloat64s(b *testing.B) {
	v := make([]float64, 2048)
	e := NewEncoder(make([]byte, 0, 8*len(v)+16))
	b.SetBytes(int64(8 * len(v)))
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.PutFloat64s(v)
	}
}
