package handleescape

import "green/internal/core"

// storedGlobalFeat parks an ExecFeat handle in the package-level
// variable: the same use-after-recycle as storedGlobal.
func storedGlobalFeat(l *core.Loop, q core.LoopQoS, f core.Features) {
	exec, err := l.ExecFeat(q, f)
	if err != nil {
		return
	}
	globalExec = exec // want "stored in a package-level variable"
}

// returnedFeat hands the pooled handle to the caller.
func returnedFeat(l *core.Loop, q core.LoopQoS, f core.Features) *core.LoopExec {
	exec, err := l.ExecFeat(q, f)
	if err != nil {
		return nil
	}
	return exec // want "returned from the function"
}
