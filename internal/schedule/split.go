// The pack, unpack and copy kernels: element-boundary windows over a
// pairwise message's packed order.
//
// The transfer engine moves a message as consecutive chunks, each
// covering the window [off, off+len(chunk)) of the packed element order;
// a whole message is the one window at offset 0. The kernels walk the
// plan's vector runs, skipping off elements arithmetically (whole runs by
// their length, then whole blocks by N) and splitting a block mid-way
// when a window boundary lands inside it, so chunked and whole-message
// transfers touch exactly the same local elements in exactly the same
// order. A window at offset 0 skips the divide that finds its first
// block: a 64-bit divide costs about as much as moving a short run.
//
// A block of more than one element is one copy, and so is a whole vector
// whose blocks abut in the buffer being walked (the contiguous side of a
// cyclic↔block pair). A vector of one-element blocks that does not — what
// a cyclic axis plans to on its strided side — goes through the strided
// kernels of stride.go, gather on the pack side and scatter on the unpack
// side. They check the walk's bounds once and move a word-sized element
// type eight words an iteration; a copy call per element would cost
// several times the move. A walk strided on both sides, which only
// CopySliceRange meets, stays a plain loop.
//
// CopySliceRange is the pack and the unpack of one window in a single
// pass: it moves the window straight from the source rank's buffer to the
// destination rank's, with no packed buffer between them. It is how a
// receiver that can read its sender's memory — an in-process rank, or the
// local executor — moves a pair.
package schedule

// PackSliceRange gathers the window [off, off+len(out)) of plan's
// packed element order from the source rank's local buffer. Packing
// consecutive windows that tile [0, plan.Elems) is equivalent to one
// PackSlice of the whole message. A window reaching past plan.Elems
// panics, as indexing past the end of a slice does.
func PackSliceRange[T any](plan PairPlan, local, out []T, off int) {
	for i := 0; len(out) > 0; i++ {
		r := plan.Runs[i]
		if off >= r.Len() {
			off -= r.Len()
			continue
		}
		n, count, stride := r.N, r.Count, r.SrcStride
		if stride == n { // the blocks abut in the source buffer: one copy
			n, count = n*count, 1
		}
		k, o := 0, 0
		if off > 0 {
			k, o = off/n, off%n
		}
		off = 0
		if n == 1 {
			m := min(count-k, len(out))
			gather(out[:m], local, r.SrcOff+k*stride, stride)
			out = out[m:]
			continue
		}
		for ; k < count && len(out) > 0; k++ {
			b := r.SrcOff + k*stride
			out = out[copy(out, local[b+o:b+n]):]
			o = 0
		}
	}
}

// UnpackSliceRange scatters a chunk holding the window
// [off, off+len(data)) of plan's packed element order into the
// destination rank's local buffer.
func UnpackSliceRange[T any](plan PairPlan, local, data []T, off int) {
	for i := 0; len(data) > 0; i++ {
		r := plan.Runs[i]
		if off >= r.Len() {
			off -= r.Len()
			continue
		}
		n, count, stride := r.N, r.Count, r.DstStride
		if stride == n { // the blocks abut in the destination buffer: one copy
			n, count = n*count, 1
		}
		k, o := 0, 0
		if off > 0 {
			k, o = off/n, off%n
		}
		off = 0
		if n == 1 {
			m := min(count-k, len(data))
			scatter(local, data[:m], r.DstOff+k*stride, stride)
			data = data[m:]
			continue
		}
		for ; k < count && len(data) > 0; k++ {
			b := r.DstOff + k*stride
			data = data[copy(local[b+o:b+n], data):]
			o = 0
		}
	}
}

// CopySliceRange moves the window [off, off+n) of plan's packed element
// order from the source rank's local buffer straight into the destination
// rank's: the same elements to the same places as PackSliceRange into a
// buffer of n elements followed by UnpackSliceRange of it, in one pass.
// src and dst must not overlap.
func CopySliceRange[T any](plan PairPlan, src, dst []T, off, n int) {
	for i := 0; n > 0; i++ {
		r := plan.Runs[i]
		if off >= r.Len() {
			off -= r.Len()
			continue
		}
		bn, count, ss, ds := r.N, r.Count, r.SrcStride, r.DstStride
		if ss == bn && ds == bn { // the blocks abut on both sides: one copy
			bn, count = bn*count, 1
		}
		k, o := 0, 0
		if off > 0 {
			k, o = off/bn, off%bn
		}
		off = 0
		s, d := r.SrcOff+k*ss, r.DstOff+k*ds
		if bn == 1 {
			m := min(count-k, n)
			switch {
			case ss == 1: // contiguous in the source: read it as unpack reads a chunk
				scatter(dst, src[s:s+m], d, ds)
			case ds == 1: // contiguous in the destination: fill it as pack fills a chunk
				gather(dst[d:d+m], src, s, ss)
			default:
				for range m {
					dst[d] = src[s]
					s += ss
					d += ds
				}
			}
			n -= m
			continue
		}
		for ; k < count && n > 0; k++ {
			n -= copy(dst[d+o:d+min(bn, o+n)], src[s+o:s+bn])
			o = 0
			s += ss
			d += ds
		}
	}
}
