package beginfinish

import "green/internal/core"

// twoBranch picks the constructor on exclusive branches and finishes
// once: one handle at run time, clean.
func twoBranch(l *core.Loop, q core.LoopQoS, feat *core.Features) error {
	var (
		e   *core.LoopExec
		err error
	)
	if feat != nil {
		e, err = l.ExecFeat(q, *feat)
	} else {
		e, err = l.Begin(q)
	}
	if err != nil {
		return err
	}
	i := 0
	for ; e.Continue(i); i++ {
	}
	e.Finish(i)
	return nil
}

// twoBranchLeak never finishes, whichever arm ran: one handle, reported
// once, at its first constructor.
func twoBranchLeak(l *core.Loop, q core.LoopQoS, feat *core.Features) {
	var e *core.LoopExec
	if feat != nil {
		e, _ = l.ExecFeat(q, *feat) // want "e.Finish is never called"
	} else {
		e, _ = l.Begin(q)
	}
	for i := 0; e.Continue(i); i++ {
	}
}

// rebound is not two branches: the second Begin overwrites the first
// handle, which nothing can finish any more.
func rebound(l *core.Loop, q core.LoopQoS) {
	e, _ := l.Begin(q) // want "e.Finish is never called"
	e, _ = l.Begin(q)
	i := 0
	for ; e.Continue(i); i++ {
	}
	e.Finish(i)
}
