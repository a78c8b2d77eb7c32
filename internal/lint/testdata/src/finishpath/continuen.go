package finishpath

import "green/internal/core"

// blockEarlyReturnLeak is earlyReturnLeak driven in ContinueN blocks:
// the deadline path returns between blocks without Finish.
func blockEarlyReturnLeak(l *core.Loop, q core.LoopQoS, expired func() bool) error {
	exec, err := l.Begin(q) // want "reaches a function exit without exec.Finish"
	if err != nil {
		return err
	}
	i := 0
	for k := exec.ContinueN(i, 64); k > 0; k = exec.ContinueN(i, 64) {
		i += k
		if expired() {
			return errTimeout // leaks the pooled handle
		}
	}
	exec.Finish(i)
	return nil
}

// blockBreakFinishes leaves the block loop by break on the deadline and
// finishes on the one path out; it must not be reported.
func blockBreakFinishes(l *core.Loop, q core.LoopQoS, expired func() bool) int {
	exec, err := l.Begin(q)
	if err != nil {
		return 0
	}
	i := 0
	for k := exec.ContinueN(i, 64); k > 0; k = exec.ContinueN(i, 64) {
		i += k
		if expired() {
			break
		}
	}
	exec.Finish(i)
	return i
}
