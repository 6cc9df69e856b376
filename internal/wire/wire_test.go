package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"mxn/internal/bufpool"
)

func TestScalarRoundTrip(t *testing.T) {
	e := NewEncoder(nil)
	e.PutUint64(math.MaxUint64)
	e.PutInt64(-12345)
	e.PutInt(-7)
	e.PutUvarint(300)
	e.PutFloat64(math.Pi)
	e.PutBool(true)
	e.PutBool(false)
	e.PutByte(0xAB)
	e.PutString("hello, 世界")
	e.PutBytes([]byte{1, 2, 3})
	e.PutFloat64s([]float64{1.5, -2.5})
	e.PutInt64s([]int64{-1, 0, 1})
	e.PutInts([]int{9, 8})

	d := NewDecoder(e.Bytes())
	if v := d.Uint64(); v != math.MaxUint64 {
		t.Errorf("Uint64 = %v", v)
	}
	if v := d.Int64(); v != -12345 {
		t.Errorf("Int64 = %v", v)
	}
	if v := d.Int(); v != -7 {
		t.Errorf("Int = %v", v)
	}
	if v := d.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %v", v)
	}
	if v := d.Float64(); v != math.Pi {
		t.Errorf("Float64 = %v", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if v := d.Byte(); v != 0xAB {
		t.Errorf("Byte = %x", v)
	}
	if v := d.String(); v != "hello, 世界" {
		t.Errorf("String = %q", v)
	}
	if v := d.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	if v := d.Float64s(); !reflect.DeepEqual(v, []float64{1.5, -2.5}) {
		t.Errorf("Float64s = %v", v)
	}
	if v := d.Int64s(); !reflect.DeepEqual(v, []int64{-1, 0, 1}) {
		t.Errorf("Int64s = %v", v)
	}
	if v := d.Ints(); !reflect.DeepEqual(v, []int{9, 8}) {
		t.Errorf("Ints = %v", v)
	}
	if d.Err() != nil {
		t.Errorf("decoder error: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Errorf("remaining = %d", d.Remaining())
	}
}

func TestValueRoundTrip(t *testing.T) {
	cases := []any{
		nil,
		true,
		int64(-99),
		3.75,
		"s",
		[]byte{0xFF},
		[]float64{1, 2, 3},
		[]float32{1.5, -2.25},
		[]int64{5},
		[]int32{-7, 1 << 30},
		[]int{1, 2},
		complex(1.5, -2.5),
		[]complex128{complex(0, 1), complex(-3.5, 7)},
		[]any{int64(1), "two", []float64{3}},
	}
	for _, want := range cases {
		e := NewEncoder(nil)
		e.PutValue(want)
		d := NewDecoder(e.Bytes())
		got := d.Value()
		if d.Err() != nil {
			t.Errorf("%v: decode error %v", want, d.Err())
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("value round trip: got %#v want %#v", got, want)
		}
	}
}

func TestValueIntBecomesInt64(t *testing.T) {
	e := NewEncoder(nil)
	e.PutValue(42) // plain int
	d := NewDecoder(e.Bytes())
	if got := d.Value(); got != int64(42) {
		t.Errorf("got %#v, want int64(42)", got)
	}
}

func TestValueUnsupportedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PutValue(struct{}{}) did not panic")
		}
	}()
	NewEncoder(nil).PutValue(struct{}{})
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2}) // too short for anything big
	_ = d.Uint64()
	if d.Err() == nil {
		t.Fatal("short read did not error")
	}
	// Subsequent reads return zero values, no panic.
	if d.Int64() != 0 || d.Float64() != 0 || d.String() != "" {
		t.Error("post-error reads returned nonzero values")
	}
}

func TestCorruptLengthPrefix(t *testing.T) {
	e := NewEncoder(nil)
	e.PutUvarint(1 << 40) // claims a huge string
	d := NewDecoder(e.Bytes())
	if s := d.String(); s != "" || d.Err() == nil {
		t.Errorf("oversized prefix: got %q err=%v", s, d.Err())
	}
	// Oversized slice claim must not allocate petabytes.
	e2 := NewEncoder(nil)
	e2.PutUvarint(1 << 40)
	d2 := NewDecoder(e2.Bytes())
	if v := d2.Float64s(); v != nil || d2.Err() == nil {
		t.Errorf("oversized float64s: got %v err=%v", v, d2.Err())
	}
}

func TestCorruptValueTag(t *testing.T) {
	d := NewDecoder([]byte{0xEE})
	if v := d.Value(); v != nil || d.Err() == nil {
		t.Errorf("bad tag: got %v err=%v", v, d.Err())
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := [][]byte{[]byte("one"), {}, []byte("three")}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame = %q, want %q", got, want)
		}
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated frame did not error")
	}
}

// TestReadFrameErrorsReturnTheirFrame: on every error path the reader has
// already handed its frame back to the pool.
func TestReadFrameErrorsReturnTheirFrame(t *testing.T) {
	var good bytes.Buffer
	if err := WriteFrame(&good, bytes.Repeat([]byte("payload "), 20<<10)); err != nil {
		t.Fatal(err)
	}
	frame := good.Bytes()
	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)-1] ^= 0x5A
	oversize := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	for _, tc := range []struct {
		name  string
		input []byte
		want  error
	}{
		{"short header", frame[:5], io.ErrUnexpectedEOF},
		{"short payload", frame[:len(frame)-100], io.ErrUnexpectedEOF},
		{"checksum mismatch", corrupt, ErrCorrupt},
		{"beyond MaxFrame", oversize, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frames := bufpool.FramesOutstanding()
			got, err := ReadFrame(bytes.NewReader(tc.input))
			if err == nil || got != nil {
				t.Fatalf("accepted %d bytes", len(got))
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if d := bufpool.FramesOutstanding() - frames; d != 0 {
				t.Fatalf("%d frames outstanding after the error", d)
			}
		})
	}
}

// TestReadFrameCorruptLengthCostsBytesSent: a header claiming 1 GiB
// followed by ten bytes and EOF commits memory for the bytes that
// arrived, not for the claim, and returns it.
func TestReadFrameCorruptLengthCostsBytesSent(t *testing.T) {
	input := append([]byte{0, 0, 0, 0x40, 0, 0, 0, 0}, make([]byte, 10)...)
	frames := bufpool.FramesOutstanding()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(input))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 256<<10 {
		t.Fatalf("reading a 10-byte body of a 1 GiB claim allocated %d bytes", d)
	}
	if d := bufpool.FramesOutstanding() - frames; d != 0 {
		t.Fatalf("%d frames outstanding", d)
	}
}

// TestReadFrameReusesReturnedFrame: a frame returned to the pool is the
// buffer the next frame of its class is read into, so a receiver that
// returns what it reads needs no new memory. TotalAlloc counts every
// goroutine of the process, so the bound holds the least of several
// measured reads: an allocation elsewhere during one read cannot fail it,
// while a reader that took a fresh frame would allocate 300 KiB on each.
func TestReadFrameReusesReturnedFrame(t *testing.T) {
	payload := bytes.Repeat([]byte{0xC3}, 300<<10) // beyond the reader's first commitment
	least := uint64(math.MaxUint64)
	for try := 0; try < 5; try++ {
		var two bytes.Buffer
		for i := 0; i < 2; i++ {
			if err := WriteFrame(&two, payload); err != nil {
				t.Fatal(err)
			}
		}
		first, err := ReadFrame(&two)
		if err != nil || !bytes.Equal(first, payload) {
			t.Fatalf("first frame: %v", err)
		}
		bufpool.PutFrame(first)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		second, err := ReadFrame(&two)
		runtime.ReadMemStats(&after)
		if err != nil || !bytes.Equal(second, payload) {
			t.Fatalf("second frame: %v", err)
		}
		if unsafe.SliceData(second) != unsafe.SliceData(first) {
			t.Error("second frame was not read into the returned one")
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		bufpool.PutFrame(second)
	}
	if least > 4<<10 {
		t.Errorf("reading into a returned frame allocated %d bytes", least)
	}
}

// Property: any sequence of primitive values round-trips.
func TestQuickRoundTrip(t *testing.T) {
	f := func(u uint64, i int64, fl float64, b bool, s string, bs []byte, fs []float64, is []int64) bool {
		e := NewEncoder(nil)
		e.PutUint64(u)
		e.PutInt64(i)
		e.PutFloat64(fl)
		e.PutBool(b)
		e.PutString(s)
		e.PutBytes(bs)
		e.PutFloat64s(fs)
		e.PutInt64s(is)
		d := NewDecoder(e.Bytes())
		gotU := d.Uint64()
		gotI := d.Int64()
		gotF := d.Float64()
		gotB := d.Bool()
		gotS := d.String()
		gotBs := d.Bytes()
		gotFs := d.Float64s()
		gotIs := d.Int64s()
		if d.Err() != nil || d.Remaining() != 0 {
			return false
		}
		if gotU != u || gotI != i || gotB != b || gotS != s {
			return false
		}
		// NaN-safe float comparison via bit patterns.
		if math.Float64bits(gotF) != math.Float64bits(fl) {
			return false
		}
		if len(gotBs) != len(bs) || !bytes.Equal(gotBs, bs) {
			return false
		}
		if len(gotFs) != len(fs) || len(gotIs) != len(is) {
			return false
		}
		for k := range fs {
			if math.Float64bits(gotFs[k]) != math.Float64bits(fs[k]) {
				return false
			}
		}
		for k := range is {
			if gotIs[k] != is[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Decoder never panics on arbitrary input bytes.
func TestQuickDecoderRobustness(t *testing.T) {
	f := func(data []byte) bool {
		d := NewDecoder(data)
		for d.Err() == nil && d.Remaining() > 0 {
			_ = d.Value()
		}
		return true // reaching here without panic is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestReadFrameColdGrowthDrawsOneBufferOfItsClass: a cold read of a 2 MiB
// payload in its envelope grows through the classes as bytes arrive, and
// its last step — past 2 MiB by the envelope's few bytes — reslices the
// top buffer within its class's headroom instead of drawing a second
// buffer of the same class and copying 2 MiB into it.
func TestReadFrameColdGrowthDrawsOneBufferOfItsClass(t *testing.T) {
	const n = 2<<20 + 80
	payload := bytes.Repeat([]byte{0x5A}, n)
	var stream bytes.Buffer
	if err := WriteFrame(&stream, payload); err != nil {
		t.Fatal(err)
	}
	// Hold every free buffer of the frame's class, so the read is cold and
	// the class's free list afterwards holds exactly what the read drew.
	drain := func() (bufs [][]byte) {
		for b := bufpool.TryGetFrame(n); b != nil; b = bufpool.TryGetFrame(n) {
			bufs = append(bufs, b)
		}
		return bufs
	}
	held := drain()
	defer func() {
		for _, b := range held {
			bufpool.PutFrame(b)
		}
	}()
	got, err := ReadFrame(&stream)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read: %v", err)
	}
	bufpool.PutFrame(got)
	drawn := drain()
	held = append(held, drawn...)
	if len(drawn) != 1 {
		t.Errorf("a cold read of a %d-byte frame drew %d buffers of its class, want 1", n, len(drawn))
	}
}
