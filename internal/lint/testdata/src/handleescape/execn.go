package handleescape

import "green/internal/core"

// globalBatch parks a pooled batch handle.
var globalBatch *core.LoopBatch

// storedGlobalBatch: batches are pooled like single executions, so a
// parked one is recycled under its new owner at the first Finish.
func storedGlobalBatch(l *core.Loop, q core.LoopQoS) {
	b, err := l.ExecN(8, q)
	if err != nil {
		return
	}
	globalBatch = b // want "stored in a package-level variable"
}

// goroutineBatch captures the batch in a goroutine.
func goroutineBatch(l *core.Loop, q core.LoopQoS) {
	b, err := l.ExecN(8, q)
	if err != nil {
		return
	}
	go func() {
		b.Finish() // want "captured by a goroutine closure"
	}()
}
