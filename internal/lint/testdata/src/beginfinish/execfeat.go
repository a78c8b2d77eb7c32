package beginfinish

import "green/internal/core"

// leakFeat is leak with the feature-carrying constructor — the one the
// serving path uses. A handle is a handle whichever entry point made it.
func leakFeat(l *core.Loop, q core.LoopQoS, f core.Features) {
	exec, err := l.ExecFeat(q, f) // want "never called"
	if err != nil {
		return
	}
	for i := 0; i < 100 && exec.Continue(i); i++ {
	}
	// missing exec.Finish(i)
}

// discardFeat throws the ExecFeat handle away at the call site.
func discardFeat(l *core.Loop, q core.LoopQoS, f core.Features) {
	_, _ = l.ExecFeat(q, f) // want "discarded"
}

// okFeat is the correct protocol and must not be reported.
func okFeat(l *core.Loop, q core.LoopQoS, f core.Features) int {
	exec, err := l.ExecFeat(q, f)
	if err != nil {
		return 0
	}
	i := 0
	for ; exec.Continue(i); i++ {
	}
	exec.Finish(i)
	return i
}
