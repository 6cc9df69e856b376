// Element codec: the bridge between the generic transfer engine and the
// raw-byte message payloads. The engine is parameterized by an element
// type; the codec maps that type to its dad.ElemKind tag (carried in every
// message so receivers can reject kind mismatches) and reinterprets pooled
// byte buffers as element slices without copying.

package redist

import (
	"fmt"
	"unsafe"

	"mxn/internal/dad"
)

// Elem enumerates the element types the transfer engine moves. The
// constraint is exact (no ~): each member must map one-to-one onto a
// dad.ElemKind wire tag, which a named type with a different identity
// would break.
type Elem interface {
	float64 | float32 | int64 | int32 | complex128
}

// kindOf returns the dad.ElemKind tag for T. Boxing the zero value does
// not allocate (the runtime serves zero values from a static area), so
// this is safe on the zero-alloc path.
func kindOf[T Elem]() dad.ElemKind {
	var z T
	switch any(z).(type) {
	case float64:
		return dad.Float64
	case float32:
		return dad.Float32
	case int64:
		return dad.Int64
	case int32:
		return dad.Int32
	case complex128:
		return dad.Complex128
	}
	panic("redist: unreachable element type")
}

// elemSize returns the in-memory (and on-wire) byte size of T.
func elemSize[T Elem]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// elemsOf reinterprets a byte buffer as n elements of type T without
// copying. The buffer must come from bufpool (8-byte-aligned backing) and
// hold at least n*elemSize[T]() bytes.
func elemsOf[T Elem](b []byte, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

// bytesOf is the inverse of elemsOf: a byte view over the caller's
// element slice, no copy. The view aliases s — a lent chunk carries it,
// and its sender must not let the caller mutate s until every receiver
// has copied out of it.
func bytesOf[T Elem](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*elemSize[T]())
}

// ElemKindError reports a received fragment whose element kind tag does
// not match the destination buffer's element type — two cohorts disagreed
// about the data type of the connected field.
type ElemKindError struct {
	DstRank int
	SrcRank int
	Got     dad.ElemKind
	Want    dad.ElemKind
}

func (e *ElemKindError) Error() string {
	return fmt.Sprintf("redist: destination rank %d received %v elements from source rank %d, expected %v",
		e.DstRank, e.Got, e.SrcRank, e.Want)
}
