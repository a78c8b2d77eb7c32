package finishpath

import "green/internal/core"

// earlyReturnLeakFeat is earlyReturnLeak through ExecFeat: the shape of
// a request handler that bails out mid-scan.
func earlyReturnLeakFeat(l *core.Loop, q core.LoopQoS, f core.Features, slow func() bool) error {
	exec, err := l.ExecFeat(q, f) // want "reaches a function exit without exec.Finish"
	if err != nil {
		return err
	}
	i := 0
	for ; exec.Continue(i); i++ {
		if slow() {
			return errTimeout // leaks the pooled handle
		}
	}
	exec.Finish(i)
	return nil
}

// doubleFinishFeat calls Finish again on the path where it already ran.
func doubleFinishFeat(l *core.Loop, q core.LoopQoS, f core.Features, flag bool) {
	exec, err := l.ExecFeat(q, f)
	if err != nil {
		return
	}
	i := 0
	for ; exec.Continue(i); i++ {
	}
	if flag {
		exec.Finish(i)
	}
	exec.Finish(i) // want "may already have run on some path"
}
