package core

import (
	"fmt"

	"mxn/internal/dad"
	"mxn/internal/obs"
)

// Hub-side malleability: the descriptor bookkeeping of an online resize.
//
// When a cohort resizes (ProposeResize → Reblock → migration transfer →
// Commit), the hub's registered fields still describe the old geometry.
// Hub.Resize re-derives every field descriptor over the new width in one
// all-or-nothing step, and Hub.Field lets a joining rank bootstrap: a
// rank admitted by the resize reads the (re-blocked) descriptor of each
// field it will host from the shared hub instead of needing the layout
// negotiated out of band.

var mHubResizes = obs.Default().Counter("core.hub_resizes")

// Field returns the registered descriptor for a field, for joining-rank
// bootstrap and introspection: a rank admitted by a resize calls Field
// after Hub.Resize to learn the re-blocked layout (and from it, via
// Template.LocalCount, the local buffer it must allocate).
func (h *Hub) Field(name string) (*dad.Descriptor, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	f, ok := h.fields[name]
	if !ok {
		return nil, false
	}
	return f.desc, true
}

// Fields returns the names of all registered fields (unordered), so a
// joining rank can enumerate what the cohort hosts.
func (h *Hub) Fields() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.fields))
	for name := range h.fields {
		out = append(out, name)
	}
	return out
}

// Resize re-derives every registered field over a cohort of newWidth
// ranks: each field's template is re-blocked (dad.Reblock — same
// distribution family, new width) and its descriptor replaced, and the
// hub's cohort width becomes newWidth. The step is all-or-nothing: if any
// field cannot be re-blocked (an Explicit or Implicit distribution), no
// field is changed and the typed *dad.ReblockError is returned wrapped —
// a half-resized hub would register fields over two different cohort
// widths.
//
// Validity bitmaps attached to the old descriptors are not carried over:
// the migration transfer (a redist.Transfer with Resize set) re-establishes
// per-rank validity under the new geometry.
//
// Established connections are untouched and keep their old-geometry
// schedules; transfers on them keep working until the peer coupling is
// re-negotiated (Propose/Accept again) against the resized fields.
// Callers drive Resize between a successful migration and the resize
// commit, typically on every hub hosting a field of the resized cohort.
func (h *Hub) Resize(newWidth int) error {
	if newWidth < 1 {
		return fmt.Errorf("core: hub %q resize to width %d", h.name, newWidth)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if newWidth == h.np {
		return nil
	}
	reblocked := make(map[string]*field, len(h.fields))
	for name, f := range h.fields {
		nt, err := dad.Reblock(f.desc.Template, newWidth)
		if err != nil {
			return fmt.Errorf("core: hub %q resize: field %q: %w", h.name, name, err)
		}
		nd, err := dad.NewDescriptor(f.desc.Name, f.desc.Elem, f.desc.Mode, nt)
		if err != nil {
			return fmt.Errorf("core: hub %q resize: field %q: %w", h.name, name, err)
		}
		reblocked[name] = &field{desc: nd}
	}
	h.fields = reblocked
	h.np = newWidth
	mHubResizes.Inc()
	return nil
}
