package finishpath

import "green/internal/core"

// batchEarlyReturnLeak finishes the batch on the normal path only: the
// bail-out inside a member strands the batch handle.
func batchEarlyReturnLeak(l *core.Loop, q core.LoopQoS, slow func() bool) error {
	b, err := l.ExecN(8, q) // want "reaches a function exit without b.Finish"
	if err != nil {
		return err
	}
	for b.Next() {
		i := 0
		for ; b.Continue(i); i++ {
			if slow() {
				return errTimeout
			}
		}
		b.End(i)
	}
	b.Finish()
	return nil
}

// batchDeferred arms the batch's Finish up front and must not be
// reported.
func batchDeferred(l *core.Loop, q core.LoopQoS, slow func() bool) error {
	b, err := l.ExecN(8, q)
	if err != nil {
		return err
	}
	defer b.Finish()
	for b.Next() {
		i := 0
		for ; b.Continue(i); i++ {
			if slow() {
				return errTimeout
			}
		}
		b.End(i)
	}
	return nil
}
