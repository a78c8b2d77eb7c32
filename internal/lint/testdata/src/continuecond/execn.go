package continuecond

import "green/internal/core"

// missingBatch runs a batch's members without ever asking Continue: no
// member can stop early, so the batch approximates nothing.
func missingBatch(l *core.Loop, q core.LoopQoS) {
	b, err := l.ExecN(8, q) // want "never guards"
	if err != nil {
		return
	}
	for b.Next() {
		for i := 0; i < 100; i++ {
		}
		b.End(100)
	}
	b.Finish()
}

// okBatch guards every member's loop and must not be reported.
func okBatch(l *core.Loop, q core.LoopQoS) {
	b, err := l.ExecN(8, q)
	if err != nil {
		return
	}
	for b.Next() {
		i := 0
		for ; i < 100 && b.Continue(i); i++ {
		}
		b.End(i)
	}
	b.Finish()
}
