//go:build !linux

package wire

import "io"

// newVecReader reads placed frames one segment per Read where readv(2)
// is not wired up: still straight into the posted memory.
func newVecReader(r io.Reader) vecReader { return plainVec{r} }
