// Package otherpkg checks that rule 1 (nil-guarding) applies outside
// pagecache while rule 2 (kprobe ordering) does not.
package otherpkg

import "kprobe"

// Observer is this package's own observer interface.
type Observer interface {
	EventScheduled(at int64)
}

type engine struct {
	obs    Observer
	probes *kprobe.Registry
}

func (e *engine) unguarded(at int64) {
	e.obs.EventScheduled(at) // want `observer hook e\.obs\.EventScheduled is not nil-guarded`
}

func (e *engine) fireThenObserveOK(at int64) {
	// Not pagecache: dispatch-before-hook ordering is not constrained.
	e.probes.Fire("hook", 0, 0)
	if e.obs != nil {
		e.obs.EventScheduled(at)
	}
}

// hub keeps a subscriber list: the nil guard lives where a subscriber
// is appended, so the fan-out loop needs none.
type hub struct {
	obs []Observer
}

func (h *hub) addOK(o Observer) {
	if o != nil {
		h.obs = append(h.obs, o)
	}
}

func (h *hub) addUnguarded(o Observer) {
	h.obs = append(h.obs, o) // want `observer o is appended to h\.obs without a nil guard`
}

// impl is a concrete observer; a nil *impl converts to a non-nil
// Observer, so appending one needs the guard too.
type impl struct{}

func (*impl) EventScheduled(at int64) {}

func (h *hub) addTypedNil(r *impl) {
	h.obs = append(h.obs, r) // want `observer r is appended to h\.obs without a nil guard`
}

func (h *hub) addAllOK(more []Observer) {
	// Every element of more was guarded when it was appended there.
	h.obs = append(h.obs, more...)
}

func (h *hub) fanOutOK(at int64) {
	for _, o := range h.obs {
		o.EventScheduled(at)
	}
}

func fanOutMap(m map[string]Observer) {
	for _, o := range m {
		o.EventScheduled(0) // want `observer hook o\.EventScheduled is not nil-guarded`
	}
}
