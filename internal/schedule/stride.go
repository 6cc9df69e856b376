// The strided kernels: a walk of one-element blocks, one side of it
// contiguous and the other a fixed stride apart, which is what a cyclic
// axis plans to. gather is the pack side (strided source, contiguous
// out) and scatter the unpack side (contiguous data, strided
// destination).
//
// Each kernel checks the bounds of the whole walk once, at its two ends,
// and then moves eight elements per iteration; a plain loop over []T
// checks every index and moves one element an iteration (EXPERIMENTS.md
// B29 has the measurements).
//
// The eight-wide body is written over machine words, not over T: the
// same body over T ran the strided BenchmarkPackSlice rows 8–41 % slower
// than the word one. Only element types that hold no pointer may be
// moved as words, since a pointer stored as a uint64 skips the GC's write
// barrier, so the kernels pick a word kernel by the concrete element
// type, never by its size alone. Every other type keeps the plain loop.
package schedule

import "unsafe"

// gather fills out with local[src], local[src+stride], …: len(out)
// elements. A walk reaching outside local panics, as indexing does.
func gather[T any](out, local []T, src, stride int) {
	m := len(out)
	if m == 0 {
		return
	}
	_ = local[src+(m-1)*stride]
	p := unsafe.Pointer(&local[src])
	switch any(&out[0]).(type) {
	case *float64, *int64, *uint64:
		gather64(unsafe.Slice((*uint64)(unsafe.Pointer(&out[0])), m), p, stride)
	case *float32, *int32, *uint32:
		gather32(unsafe.Slice((*uint32)(unsafe.Pointer(&out[0])), m), p, stride)
	default:
		for j := range out {
			out[j] = local[src]
			src += stride
		}
	}
}

// scatter stores data into local[dst], local[dst+stride], …: len(data)
// elements. A walk reaching outside local panics, as indexing does.
func scatter[T any](local, data []T, dst, stride int) {
	m := len(data)
	if m == 0 {
		return
	}
	_ = local[dst+(m-1)*stride]
	p := unsafe.Pointer(&local[dst])
	switch any(&data[0]).(type) {
	case *float64, *int64, *uint64:
		scatter64(p, unsafe.Slice((*uint64)(unsafe.Pointer(&data[0])), m), stride)
	case *float32, *int32, *uint32:
		scatter32(p, unsafe.Slice((*uint32)(unsafe.Pointer(&data[0])), m), stride)
	default:
		for _, v := range data {
			local[dst] = v
			dst += stride
		}
	}
}

// The word kernels. s (d) points at the first element of a strided walk
// of len(out) (len(data)) words that the caller has bounds-checked. Every
// pointer they form is an element of the walk or of the contiguous side,
// never one past its end, which Go's pointer rules (and checkptr) forbid.

func gather64(out []uint64, s unsafe.Pointer, stride int) {
	st := uintptr(stride) * 8
	o := unsafe.Pointer(unsafe.SliceData(out))
	i := 0
	for ; i+8 <= len(out); i += 8 {
		p := unsafe.Add(s, uintptr(i)*st)
		q := unsafe.Add(o, i*8)
		*(*uint64)(q) = *(*uint64)(p)
		p = unsafe.Add(p, st)
		*(*uint64)(unsafe.Add(q, 8)) = *(*uint64)(p)
		p = unsafe.Add(p, st)
		*(*uint64)(unsafe.Add(q, 16)) = *(*uint64)(p)
		p = unsafe.Add(p, st)
		*(*uint64)(unsafe.Add(q, 24)) = *(*uint64)(p)
		p = unsafe.Add(p, st)
		*(*uint64)(unsafe.Add(q, 32)) = *(*uint64)(p)
		p = unsafe.Add(p, st)
		*(*uint64)(unsafe.Add(q, 40)) = *(*uint64)(p)
		p = unsafe.Add(p, st)
		*(*uint64)(unsafe.Add(q, 48)) = *(*uint64)(p)
		p = unsafe.Add(p, st)
		*(*uint64)(unsafe.Add(q, 56)) = *(*uint64)(p)
	}
	for ; i < len(out); i++ {
		out[i] = *(*uint64)(unsafe.Add(s, uintptr(i)*st))
	}
}

func scatter64(d unsafe.Pointer, data []uint64, stride int) {
	st := uintptr(stride) * 8
	v := unsafe.Pointer(unsafe.SliceData(data))
	i := 0
	for ; i+8 <= len(data); i += 8 {
		p := unsafe.Add(d, uintptr(i)*st)
		q := unsafe.Add(v, i*8)
		*(*uint64)(p) = *(*uint64)(q)
		p = unsafe.Add(p, st)
		*(*uint64)(p) = *(*uint64)(unsafe.Add(q, 8))
		p = unsafe.Add(p, st)
		*(*uint64)(p) = *(*uint64)(unsafe.Add(q, 16))
		p = unsafe.Add(p, st)
		*(*uint64)(p) = *(*uint64)(unsafe.Add(q, 24))
		p = unsafe.Add(p, st)
		*(*uint64)(p) = *(*uint64)(unsafe.Add(q, 32))
		p = unsafe.Add(p, st)
		*(*uint64)(p) = *(*uint64)(unsafe.Add(q, 40))
		p = unsafe.Add(p, st)
		*(*uint64)(p) = *(*uint64)(unsafe.Add(q, 48))
		p = unsafe.Add(p, st)
		*(*uint64)(p) = *(*uint64)(unsafe.Add(q, 56))
	}
	for ; i < len(data); i++ {
		*(*uint64)(unsafe.Add(d, uintptr(i)*st)) = data[i]
	}
}

func gather32(out []uint32, s unsafe.Pointer, stride int) {
	st := uintptr(stride) * 4
	o := unsafe.Pointer(unsafe.SliceData(out))
	i := 0
	for ; i+8 <= len(out); i += 8 {
		p := unsafe.Add(s, uintptr(i)*st)
		q := unsafe.Add(o, i*4)
		*(*uint32)(q) = *(*uint32)(p)
		p = unsafe.Add(p, st)
		*(*uint32)(unsafe.Add(q, 4)) = *(*uint32)(p)
		p = unsafe.Add(p, st)
		*(*uint32)(unsafe.Add(q, 8)) = *(*uint32)(p)
		p = unsafe.Add(p, st)
		*(*uint32)(unsafe.Add(q, 12)) = *(*uint32)(p)
		p = unsafe.Add(p, st)
		*(*uint32)(unsafe.Add(q, 16)) = *(*uint32)(p)
		p = unsafe.Add(p, st)
		*(*uint32)(unsafe.Add(q, 20)) = *(*uint32)(p)
		p = unsafe.Add(p, st)
		*(*uint32)(unsafe.Add(q, 24)) = *(*uint32)(p)
		p = unsafe.Add(p, st)
		*(*uint32)(unsafe.Add(q, 28)) = *(*uint32)(p)
	}
	for ; i < len(out); i++ {
		out[i] = *(*uint32)(unsafe.Add(s, uintptr(i)*st))
	}
}

func scatter32(d unsafe.Pointer, data []uint32, stride int) {
	st := uintptr(stride) * 4
	v := unsafe.Pointer(unsafe.SliceData(data))
	i := 0
	for ; i+8 <= len(data); i += 8 {
		p := unsafe.Add(d, uintptr(i)*st)
		q := unsafe.Add(v, i*4)
		*(*uint32)(p) = *(*uint32)(q)
		p = unsafe.Add(p, st)
		*(*uint32)(p) = *(*uint32)(unsafe.Add(q, 4))
		p = unsafe.Add(p, st)
		*(*uint32)(p) = *(*uint32)(unsafe.Add(q, 8))
		p = unsafe.Add(p, st)
		*(*uint32)(p) = *(*uint32)(unsafe.Add(q, 12))
		p = unsafe.Add(p, st)
		*(*uint32)(p) = *(*uint32)(unsafe.Add(q, 16))
		p = unsafe.Add(p, st)
		*(*uint32)(p) = *(*uint32)(unsafe.Add(q, 20))
		p = unsafe.Add(p, st)
		*(*uint32)(p) = *(*uint32)(unsafe.Add(q, 24))
		p = unsafe.Add(p, st)
		*(*uint32)(p) = *(*uint32)(unsafe.Add(q, 28))
	}
	for ; i < len(data); i++ {
		*(*uint32)(unsafe.Add(d, uintptr(i)*st)) = data[i]
	}
}
