package finishpath

import "green/internal/core"

// twoBranch picks the constructor on exclusive branches, per pass of an
// outer loop, and finishes once per pass: clean — neither constructor
// leaks, and the Finish of one pass is not a second Finish of the pass
// before.
func twoBranch(l *core.Loop, q core.LoopQoS, feat *core.Features) error {
	for run := 0; run < 3; run++ {
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
	}
	return nil
}

// twoBranchLeak returns from the else branch with its handle live; the
// finding sits on the constructor that leaks, not on its sibling.
func twoBranchLeak(l *core.Loop, q core.LoopQoS, feat *core.Features, slow func() bool) error {
	var (
		e   *core.LoopExec
		err error
	)
	if feat != nil {
		e, err = l.ExecFeat(q, *feat)
	} else {
		e, err = l.Begin(q) // want "reaches a function exit without e.Finish"
		if err == nil && slow() {
			return errTimeout
		}
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

// twoBranchDouble finishes the shared handle twice: one finding, however
// many constructors feed it.
func twoBranchDouble(l *core.Loop, q core.LoopQoS, feat *core.Features) {
	var e *core.LoopExec
	if feat != nil {
		e, _ = l.ExecFeat(q, *feat)
	} else {
		e, _ = l.Begin(q)
	}
	i := 0
	for ; e.Continue(i); i++ {
	}
	e.Finish(i)
	e.Finish(i) // want "may already have run on some path"
}
