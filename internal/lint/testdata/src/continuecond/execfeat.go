package continuecond

import "green/internal/core"

// missingFeat finishes an ExecFeat execution whose Continue never
// guarded any loop.
func missingFeat(l *core.Loop, q core.LoopQoS, f core.Features) {
	exec, err := l.ExecFeat(q, f) // want "never guards"
	if err != nil {
		return
	}
	for i := 0; i < 100; i++ {
	}
	exec.Finish(100)
}
