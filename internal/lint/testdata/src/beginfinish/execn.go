package beginfinish

import "green/internal/core"

// leakBatch runs every member of a batch and never Finishes it: the
// unused executions are not returned and the batch is not recycled.
func leakBatch(l *core.Loop, q core.LoopQoS) {
	b, err := l.ExecN(8, q) // want "never called"
	if err != nil {
		return
	}
	for b.Next() {
		i := 0
		for ; i < 100 && b.Continue(i); i++ {
		}
		b.End(i)
	}
	// missing b.Finish()
}

// okBatch is the batch protocol with its epilogue and must not be
// reported.
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
