package beginfinish

import "green/internal/core"

// leakBlocks drives the loop in ContinueN blocks and forgets Finish:
// asking for blocks keeps the handle in this function's hands, so the
// leak is this function's.
func leakBlocks(l *core.Loop, q core.LoopQoS) {
	exec, err := l.Begin(q) // want "never called"
	if err != nil {
		return
	}
	i := 0
	for k := exec.ContinueN(i, 64); k > 0; k = exec.ContinueN(i, 64) {
		i += k
	}
	// missing exec.Finish(i)
}

// okBlocks is the block loop with its epilogue and must not be reported.
func okBlocks(l *core.Loop, q core.LoopQoS) int {
	exec, err := l.Begin(q)
	if err != nil {
		return 0
	}
	i := 0
	for k := exec.ContinueN(i, 64); k > 0; k = exec.ContinueN(i, 64) {
		i += k
	}
	exec.Finish(i)
	return i
}
