// The pack and unpack kernels: element-boundary windows over a pairwise
// message's packed order.
//
// The transfer engine moves a message as consecutive chunks, each
// covering the window [off, off+len(chunk)) of the packed element order;
// a whole message is the one window at offset 0. The kernels walk the
// plan's runs, skipping off elements and splitting a run mid-way when a
// window boundary lands inside it, so chunked and whole-message
// transfers touch exactly the same local elements in exactly the same
// order.
package schedule

// skipRuns drops the runs that lie wholly before packed offset off and
// returns the rest with the offset left inside its first run. At off 0
// it is straight through.
func skipRuns(runs []Run, off int) ([]Run, int) {
	for off > 0 && len(runs) > 0 && off >= runs[0].N {
		off -= runs[0].N
		runs = runs[1:]
	}
	return runs, off
}

// PackSliceRange gathers the window [off, off+len(out)) of plan's
// packed element order from the source rank's local buffer. Packing
// consecutive windows that tile [0, plan.Elems) is equivalent to one
// PackSlice of the whole message. A window reaching past plan.Elems
// panics, as indexing past the end of a slice does.
//
// A run of one element is assigned directly: cyclic layouts produce nothing
// but unit runs, and a copy call per element costs several times the move.
func PackSliceRange[T any](plan PairPlan, local, out []T, off int) {
	runs, off := skipRuns(plan.Runs, off)
	for i, k := 0, 0; k < len(out); i++ {
		r := runs[i]
		if r.N == 1 {
			out[k] = local[r.SrcOff]
			k++
			continue
		}
		n := min(r.N-off, len(out)-k)
		copy(out[k:k+n], local[r.SrcOff+off:r.SrcOff+off+n])
		k += n
		off = 0
	}
}

// UnpackSliceRange scatters a chunk holding the window
// [off, off+len(data)) of plan's packed element order into the
// destination rank's local buffer.
func UnpackSliceRange[T any](plan PairPlan, local, data []T, off int) {
	runs, off := skipRuns(plan.Runs, off)
	for i, k := 0, 0; k < len(data); i++ {
		r := runs[i]
		if r.N == 1 {
			local[r.DstOff] = data[k]
			k++
			continue
		}
		n := min(r.N-off, len(data)-k)
		copy(local[r.DstOff+off:r.DstOff+off+n], data[k:k+n])
		k += n
		off = 0
	}
}
