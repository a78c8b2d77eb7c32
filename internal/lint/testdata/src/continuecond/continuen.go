package continuecond

import "green/internal/core"

// discarded asks for a block and drops the answer: nothing bounds the
// body, and the 0 that means stop is never seen.
func discarded(l *core.Loop, q core.LoopQoS) {
	exec, err := l.Begin(q)
	if err != nil {
		return
	}
	for i := 0; i < 100; i += 64 {
		exec.ContinueN(i, 64)     // want "result discarded"
		_ = exec.ContinueN(i, 64) // want "result discarded"
	}
	exec.Finish(100)
}

// constantBlock re-asks from iteration 0 every time instead of from the
// induction variable.
func constantBlock(l *core.Loop, q core.LoopQoS) {
	exec, err := l.Begin(q)
	if err != nil {
		return
	}
	i := 0
	for k := exec.ContinueN(0, 64); k > 0; k = exec.ContinueN(0, 64) { // want "constant 0" "constant 0"
		i += k
	}
	exec.Finish(i)
}

// once asks for a single block outside any loop: the stop law is
// consulted one time, not once per block.
func once(l *core.Loop, q core.LoopQoS, i int) {
	exec, err := l.Begin(q)
	if err != nil {
		return
	}
	k := exec.ContinueN(i, 64) // want "inside a for loop"
	exec.Finish(i + k)
}

// okBlocks is the canonical block loop and must not be reported: the
// count bounds the body's block, the next block is asked from the live
// induction variable, and a body that ends early just finishes.
func okBlocks(l *core.Loop, q core.LoopQoS, stepN func(int) int) {
	exec, err := l.Begin(q)
	if err != nil {
		return
	}
	i := 0
	for k := exec.ContinueN(i, 64); k > 0; k = exec.ContinueN(i, 64) {
		n := stepN(k)
		i += n
		if n < k {
			break
		}
	}
	exec.Finish(i)
}

// okBodyForm asks in the loop body; equally fine.
func okBodyForm(l *core.Loop, q core.LoopQoS, bound int) {
	exec, err := l.Begin(q)
	if err != nil {
		return
	}
	i := 0
	for i < bound {
		k := exec.ContinueN(i, min(64, bound-i))
		if k == 0 {
			break
		}
		i += k
	}
	exec.Finish(i)
}
