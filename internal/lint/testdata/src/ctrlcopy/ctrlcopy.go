// Package ctrlcopy is a greenlint fixture: Green controllers copied by
// value.
package ctrlcopy

import "green/internal/core"

// byValue receives a Loop by value: the mutex is copied.
func byValue(l core.Loop) { // want "passes by value"
	_ = l.Level()
}

// deref copies the controller out of its pointer.
func deref(l *core.Loop) {
	cp := *l // want "copies a Loop"
	_ = cp.Level()
}

// argCopy passes a dereferenced controller to a by-value parameter.
func argCopy(l *core.Loop) {
	byValue(*l) // want "copies a Loop"
}

// appField returns an App by value out of a struct.
type holder struct {
	app core.App
}

func appValue(h *holder) core.App { // want "returns by value"
	return h.app // want "copies a App"
}

// func2ByValue receives a Func2 by value: the 2D controller carries the
// same mutex-and-atomics state as the 1D one.
func func2ByValue(f core.Func2) { // want "passes by value"
	_ = f.Offset()
}

// func2Deref copies the 2D controller out of its pointer.
func func2Deref(f *core.Func2) {
	cp := *f // want "copies a Func2"
	_ = cp.Offset()
}

// ok shares controllers through pointers and must not be reported.
func ok(l *core.Loop, f *core.Func, f2 *core.Func2, a *core.App) {
	_ = a.Observations()
	_ = l.Level()
	_ = f.Offset()
	_ = f2.Call(1, 2)
}
