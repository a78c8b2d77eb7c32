package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"green/internal/model"
)

// The reference model of the control law: Figures 3, 5, 7 and 9 as one
// mutex-guarded struct of plain fields — no pools, no atomics, no
// blocks, the stop law asked once per iteration. It reads the calibrated
// model and the configuration and reimplements everything else (the
// sampling modulo, the windowed policy, the breaker, the level and offset
// steps, the batch contract), so it never consults the code it checks.
// refSchedule runs it and a live Loop, Func or Func2 through one
// schedule and compares the two after every operation.

const kLoop, kFunc, kFunc2 = 0, 1, 2

// refConfig is one controller's configuration; both sides build from it.
// A window of 0 is a nil Policy. A calm schedule's callbacks never panic.
type refConfig struct {
	kind, iv, window    int
	sla, step, minLevel float64
	mode                LoopMode
	disabled, calm      bool
}

// refModel is the law's state, all of it under mu.
type refModel struct {
	mu                 sync.Mutex
	c                  refConfig
	lm                 *model.LoopModel
	ranges             []model.Range // Func's range table (Fig 7)
	grid               *model.FuncModel2D
	cool               int64 // the breaker's current cool-down
	openedAt, probeAt  int64
	fm                 *model.FuncModel
	nm, offset         int     // nm: observations in the open window
	window             int     // observations a decision judges
	windowSum          float64 // their losses' sum
	disabled, forceOff bool
	lossSum            float64
	raised, blocked    bool // a derived step raised M by M/5; it declined a decrease
	sized, skipped     bool // a sized window above one closed; a monitored call ran precise
	reached            bool // a monitored call the offset or the disable sent to precise measured a version
	refView
}

// refView is what a controller reports; level is M, or the ladder offset.
type refView struct {
	level              float64
	ap                 model.AdaptiveParams
	enabled            bool
	iv, lastSeq        int64
	lastAct            Action
	count, monitored   int64
	lossBits, meanBits uint64
	sel                SelectorStats
	brk                BreakerStats
}

// newRefModel builds the calibrated models both sides read and the
// model's initial state from them.
func newRefModel(t *testing.T, c refConfig) *refModel {
	lm, err := model.BuildLoopModel("ref", []model.CalPoint{{Level: 4, QoSLoss: 0.10, Work: 4, Spread: 0.08},
		{Level: 8, QoSLoss: 0.05, Work: 8, Spread: 0.006}, {Level: 16, QoSLoss: 0.02, Work: 16, Spread: 0.003},
		{Level: 32, QoSLoss: 0.01, Work: 32, Spread: 0.001}}, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	m := &refModel{c: c, lm: lm, fm: funcFixture(t, 0.05, 0).cfg.Model, grid: func2Fixture(t, 0.05, 0).cfg.Model,
		forceOff: c.disabled}
	m.iv, m.cool = int64(c.iv), m.baseCool()
	switch c.kind {
	case kFunc:
		m.ranges = m.fm.Ranges(c.sla)
	case kLoop:
		if m.level, err = lm.StaticParams(c.sla); err != nil {
			m.level, m.disabled = lm.BaseLevel, true
		}
		if ap, err := lm.AdaptiveParamsFor(c.sla); err == nil && c.mode == Adaptive {
			m.ap, m.ap.Period = ap, math.Max(1, math.Round(ap.Period)) // whole iterations
		}
	}
	if m.window = c.window; c.window == 0 {
		m.window = m.sizedWindow()
	}
	return m
}

// sizedWindow is the window a nil Policy judges: for the level one step
// cheaper than the initial one against the SLA and for the initial level
// against 0.9·SLA, n = ⌈(1.645·σ/|μ − edge|)²⌉ (one where σ is zero), the
// larger, at most 100. A loop's μ and σ are the model's at M and at
// M − step (no lower than MinLevel; none where that is M); a function's
// are those of its calibrated losses — the samples inside each range
// (Func), the cells (Func2) — at offset −1 and 0, precise left out. A
// loop the model disabled, and an adaptive loop, judge each observation.
func (m *refModel) sizedWindow() int {
	var at [2][]float64
	switch m.c.kind {
	case kLoop:
		step := m.c.step
		if step == 0 {
			step = m.lm.Points[1].Level - m.lm.Points[0].Level
		}
		if m.disabled || m.c.mode == Adaptive {
			return 1
		}
		lower := math.Max(m.level-step, m.c.minLevel)
		mu := func(l float64) float64 { return m.lm.PredictLoss(l) }
		sd := func(l float64) float64 { return m.lm.PredictSpread(l) }
		n := refWindow(mu(m.level), sd(m.level), 0.9*m.c.sla)
		if lower < m.level {
			n = max(n, refWindow(mu(lower), sd(lower), m.c.sla))
		}
		return n
	case kFunc:
		for i, r := range m.ranges {
			for k := range at {
				if v := m.shifted(r.Version, k-1); v >= 0 {
					for _, s := range m.fm.Versions[v].Samples {
						if s.X >= r.Lo && (s.X < r.Hi || s.X == r.Hi && i == len(m.ranges)-1) {
							at[k] = append(at[k], s.Loss)
						}
					}
				}
			}
		}
	default:
		g := m.grid.Grid
		for cy := 0; cy < g.NY; cy++ {
			for cx := 0; cx < g.NX; cx++ {
				x := g.XLo + (float64(cx)+0.5)*(g.XHi-g.XLo)/float64(g.NX)
				y := g.YLo + (float64(cy)+0.5)*(g.YHi-g.YLo)/float64(g.NY)
				for k := range at {
					if v := m.shifted(m.grid.SelectVersion(x, y, m.c.sla), k-1); v >= 0 && !math.IsInf(m.grid.Versions[v].Loss[cy*g.NX+cx], 1) {
						at[k] = append(at[k], m.grid.Versions[v].Loss[cy*g.NX+cx])
					}
				}
			}
		}
	}
	n := 1
	for k, edge := range []float64{m.c.sla, 0.9 * m.c.sla} {
		mean, sq := 0.0, 0.0
		for _, l := range at[k] {
			mean, sq = mean+l/float64(len(at[k])), sq+l*l/float64(len(at[k]))
		}
		n = max(n, refWindow(mean, math.Sqrt(max(0, sq-mean*mean)), edge))
	}
	return n
}

// refWindow is one level's ⌈(1.645·σ/|μ − edge|)²⌉ in [1, 100].
func refWindow(mu, sd, edge float64) int {
	if sd == 0 {
		return 1
	}
	if r := 1.645 * sd / math.Abs(mu-edge); r*r < 100 {
		return max(1, int(math.Ceil(r*r)))
	}
	return 100
}

func (m *refModel) set(fn func()) { m.mu.Lock(); defer m.mu.Unlock(); fn() }

// baseCool is the breaker's cool-down: four sampling intervals, at least
// 16 executions.
func (m *refModel) baseCool() int64 { return max(16, 4*int64(m.c.iv)) }

// begin is the Execute and Select stages of n executions claimed at once
// (n = 1 for a single one): one breaker consult, at the last sequence
// number; the monitored member is the first whose sequence number is a
// multiple of Sample_QoS, or member 0 for a half-open probe; and, for a
// loop's single execution with Features, one Selector consult.
func (m *refModel) begin(n int, f *Features) (first int64, at int, forced, probe bool, sd selDecision) {
	m.count += int64(n)
	first, at = m.count-int64(n)+1, -1
	switch {
	case m.brk.State == BreakerOpen && m.count-m.openedAt >= m.cool:
		m.brk.State = BreakerHalfOpen
		fallthrough
	case m.brk.State == BreakerHalfOpen && m.count-m.probeAt >= m.cool: // the last probe was lost
		m.probeAt, probe, at = m.count, true, 0
	case m.brk.State != BreakerClosed:
		forced = true
	}
	for k := 0; k < n && m.iv > 0 && !forced; k++ {
		if (first+int64(k))%m.iv == 0 {
			at = k
			break
		}
	}
	if f == nil || !f.Valid || !m.sel.Installed {
		return first, at, forced, probe, sd
	}
	switch level, ok := m.selector().Select(*f, m.c.sla); {
	case !ok:
		m.sel.Fallbacks++
	case forced || m.disabled || m.forceOff:
		m.sel.Overrides++
	default:
		m.sel.Hits++
		sd = selDecision{*f, level, true}
	}
	return first, at, forced, probe, sd
}

// observe is the monitored tail of Figs 3 and 7. A contained panic is
// discarded and charged to the breaker: the third in a row trips it, and
// a failed probe re-opens it with the cool-down doubled, up to 32 times.
// A clean loss resets the failure run (a clean probe closes the breaker),
// is counted, fed to QoS_ReCalibrate, applied, and routed back to the
// Selector that chose the level.
func (m *refModel) observe(seq int64, loss float64, panicked, probe bool, sd selDecision) Action {
	if b := &m.brk; panicked {
		b.ContainedPanics++
		b.ConsecutiveFailures++
		reopen := probe || b.State == BreakerHalfOpen
		if reopen && m.cool < 32*m.baseCool() {
			m.cool *= 2
		}
		if reopen || b.State == BreakerClosed && b.ConsecutiveFailures >= 3 {
			m.openedAt, b.State = seq, BreakerOpen
			b.Trips++
		}
		return ActNone
	} else if b.ConsecutiveFailures = 0; probe && b.State == BreakerHalfOpen {
		m.cool, b.State = m.baseCool(), BreakerClosed
	}
	m.monitored++
	m.lossSum += loss
	act := m.apply(m.recalibrate(loss))
	m.lastSeq, m.lastAct = seq, act
	if sd.selected && m.sel.Installed && m.selector().Correct(sd.feat, sd.level, loss) {
		m.sel.Corrections++
	}
	return act
}

// recalibrate is QoS_ReCalibrate: Fig 9's window, which monitors every
// execution until Window observations are in and then applies Fig 3's
// rule to their mean loss, back at the configured Sample_QoS. A window
// of one is Fig 3 itself and leaves the interval alone, and so does a
// nil Policy's sized window throughout. It returns the action and the
// loss it judged.
func (m *refModel) recalibrate(loss float64) (Action, float64) {
	m.nm, m.windowSum = m.nm+1, m.windowSum+loss
	if m.nm < m.window {
		if m.c.window > 0 {
			m.iv = 1
		}
		return ActNone, loss
	}
	if m.nm > 1 {
		m.iv = int64(m.c.iv)
		m.sized = m.sized || m.c.window == 0
	}
	loss = m.windowSum / float64(m.nm)
	m.nm, m.windowSum = 0, 0
	switch {
	case loss > m.c.sla:
		return ActIncrease, loss
	case loss < 0.9*m.c.sla:
		return ActDecrease, loss
	}
	return ActNone, loss
}

// apply moves the knob and re-enables a model-disabled controller, and
// returns the action it applied: the ladder offset one version within
// ±2; M within [MinLevel, BaseLevel] with the adaptive TargetDelta
// halved or doubled (a static loop's is 0). An explicit Step moves M by
// Step either way. A zero Step is the first knot gap, raises M by
// max(gap, M/5), and lowers it by the gap only if the model's loss
// there, times the judged loss over the model's at M (clamped to
// [1/4, 4]; 1 where the model's is at most 1e-9), is within the SLA —
// else nothing moves and the action is none.
func (m *refModel) apply(a Action, judged float64) Action {
	if a == ActNone {
		return a
	}
	up, step, pts := a == ActIncrease, m.c.step, m.lm.Points
	if step == 0 {
		step = pts[1].Level - pts[0].Level
	}
	raise, lower := step, math.Max(m.level-step, m.c.minLevel)
	if m.c.step == 0 && m.c.kind == kLoop {
		ratio := 1.0
		if p := m.lm.PredictLoss(m.level); p > 1e-9 {
			ratio = min(max(judged/p, 0.25), 4)
		}
		if !up && ratio*m.lm.PredictLoss(lower) > m.c.sla {
			m.blocked = true
			return ActNone
		}
		raise = math.Max(step, 0.2*m.level)
		m.raised = m.raised || up && raise > step
	}
	switch m.disabled = false; {
	case m.c.kind != kLoop && up:
		m.offset = min(2, m.offset+1)
	case m.c.kind != kLoop:
		m.offset = max(-2, m.offset-1)
	case up:
		m.level, m.ap.TargetDelta = math.Min(m.level+raise, m.lm.BaseLevel), m.ap.TargetDelta/2
	default:
		m.level, m.ap.TargetDelta = lower, m.ap.TargetDelta*2
	}
	return a
}

// runLoop is one execution of the Fig 3 loop under QoS_Lp_Approx (Fig 5)
// to the loop's own bound; off reports that it had to run precisely.
func (m *refModel) runLoop(q *refLog, bound int, seq int64, mon, forced, probe bool, sd selDecision) (refMember, bool) {
	off, level, ap, adaptive := forced || m.disabled || m.forceOff, m.level, m.ap, m.c.mode == Adaptive
	if sd.selected && !off && adaptive {
		ap.M = sd.level
	} else if sd.selected && !off {
		level = sd.level
	}
	stop := func(i int) bool {
		if off || adaptive && (ap.Period < 1 || float64(i) < ap.M || i == 0 || i%int(ap.Period) != 0) {
			return false
		}
		return !adaptive && float64(i) >= level || adaptive && q.Delta(i) <= ap.TargetDelta
	}
	res, i, recorded, panicked, loss := Result{StoppedAt: -1, Monitored: mon}, 0, false, false, 0.0
	for ; i < bound; i++ {
		if !mon && stop(i) {
			res.Approximated, res.StoppedAt = true, i
			break
		} else if mon && !recorded && !panicked {
			panicked = contained(func() {
				if stop(i) {
					q.Record(i)
					recorded, res.StoppedAt = true, i
				}
			})
		}
	}
	if mon && recorded {
		panicked = contained(func() { loss = q.Loss(i) })
	}
	if mon { // a panic struck before Loss returned: loss is still 0
		res.Recalibrated, res.ContainedPanic, res.Loss = m.observe(seq, loss, panicked, probe, sd), panicked, loss
	}
	return refMember{res: res, iters: i}, off
}

// runFunc is one call of Fig 7: the chosen version, or on a monitored
// call the precise one returned and a version measured against it — the
// chosen one, or where the offset alone (past the top) or the model's
// disable chose precise, the most precise one the offset reaches. A
// monitored call whose base choice is precise, or that the sticky
// disable keeps precise, measured nothing and observes nothing, a
// half-open probe included.
func (m *refModel) runFunc(q *refLog, x, y float64, seq int64, mon, forced, probe bool) (refMember, bool) {
	v, off := m.version(x, y, forced)
	if !mon {
		return refMember{y: math.Float64bits(q.fn(v, x, y))}, off
	}
	yp, loss := q.fn(-1, x, y), 0.0
	if u := v; !forced && !m.forceOff && m.base(x, y) >= 0 {
		v = min(max(m.base(x, y)+m.offset, 0), 1)
		m.reached = m.reached || u < 0
	} else {
		v = -1
	}
	if v < 0 {
		m.skipped = true
		return refMember{y: math.Float64bits(yp)}, off
	}
	panicked := contained(func() { loss = q.cmp(yp, q.fn(v, x, y)) })
	m.observe(seq, loss, panicked, probe, selDecision{})
	return refMember{y: math.Float64bits(yp)}, off
}

// version is QoS_Fn_Approx: precise when forced or off, else the base
// version shifted by the offset.
func (m *refModel) version(x, y float64, forced bool) (int, bool) {
	if forced || m.disabled || m.forceOff {
		return -1, true
	}
	return m.shifted(m.base(x, y), m.offset), false
}

// base is the range table's (grid cell's) version at the input, precise
// outside the domain.
func (m *refModel) base(x, y float64) int {
	if m.c.kind == kFunc2 {
		return m.grid.SelectVersion(x, y, m.c.sla)
	}
	for _, r := range m.ranges {
		if x >= r.Lo && (x < r.Hi || x == r.Hi && r.Hi == m.ranges[len(m.ranges)-1].Hi) {
			return r.Version
		}
	}
	return -1
}

// shifted is a base version under an offset: precise stays precise, past
// the top is precise, below the bottom is the cheapest.
func (m *refModel) shifted(base, offset int) int {
	if v := base + offset; base >= 0 && v < 2 {
		return max(v, 0)
	}
	return -1
}

func (m *refModel) view() (v refView) {
	m.set(func() {
		v = m.refView
		v.level, v.enabled = v.level+float64(m.offset), !m.disabled && !m.forceOff
		v.lossBits, v.meanBits = math.Float64bits(m.lossSum), math.Float64bits(m.lossSum/float64(max(m.monitored, 1)))
	})
	return v
}

// liveCtl is the surface the driver uses of Loop, Func and Func2.
type liveCtl interface {
	Controller
	lossSum() float64
}

func liveView(c liveCtl) (v refView) {
	var mean float64
	v.count, v.monitored, mean = c.Stats()
	v.lastSeq, v.lastAct = c.LastRecalibration()
	v.level, v.enabled, v.iv, v.brk = c.Level(), c.ApproxEnabled(), c.SampleInterval(), c.Breaker()
	v.lossBits, v.meanBits = math.Float64bits(c.lossSum()), math.Float64bits(mean)
	if l, ok := c.(*Loop); ok {
		v.ap, v.sel = l.Adaptive(), l.SelectorStats()
	}
	return v
}

// contained runs fn and reports whether it panicked.
func contained(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return
}

// refSelector is a stateless Select stage whose answers are written in
// the key, Features.Key = level + 100·decline + 1000·k: it chooses the
// level (the key mod 100), declines when the hundreds digit is set, and
// reports a correction when the loss exceeds k·SLA.
type refSelector struct{ sla float64 }

func (refSelector) Select(f Features, _ float64) (float64, bool) {
	return math.Mod(f.Key, 100), math.Mod(f.Key, 1000) < 100
}
func (s refSelector) Correct(f Features, _, loss float64) bool {
	return loss > s.sla*math.Floor(f.Key/1000)
}
func (refSelector) State() SelectorState        { return SelectorState{Version: selectorStateVersion} }
func (refSelector) Restore(SelectorState) error { return nil }

// selector is the Selector both sides install.
func (m *refModel) selector() refSelector { return refSelector{m.c.sla} }

// refLog is one side's callbacks, each call logged. A loop's Delta decays
// with the iteration and Loss returns the op's loss; a function's
// versions are x·y (precise), ×1.10 and ×(1 + the op's loss), so the
// top version can push the offset up. The callback named
// panicIn — Record, Delta, Loss, an approximate Fn or the comparator —
// panics on the member whose argument (cur) is panicAt.
type refLog struct {
	calls                     []refCall
	panicIn                   byte
	panicAt, cur, scale, loss float64
}

type refCall struct {
	kind byte
	arg  int     // iteration, or version
	cur  float64 // the member's argument
}

func (q *refLog) hit(kind byte, arg int) {
	if q.calls = append(q.calls, refCall{kind, arg, q.cur}); kind == q.panicIn && q.cur == q.panicAt {
		panic("qos callback")
	}
}

func (q *refLog) Record(i int)        { q.hit('R', i) }
func (q *refLog) Delta(i int) float64 { q.hit('D', i); return q.scale / float64(i+1) }
func (q *refLog) Loss(i int) float64  { q.hit('L', i); return q.loss }
func (q *refLog) cmp(p, a float64) float64 {
	q.hit('C', 0)
	return math.Abs(a-p) / math.Max(math.Abs(p), 1e-12)
}
func (q *refLog) fn(v int, x, y float64) float64 {
	q.cur = x
	q.hit("PFF"[v+1], v)
	return x * y * [3]float64{1, 1.10, 1 + q.loss}[v+1]
}

// refMember is one execution's outcome: a loop's Result and iterations,
// or a function's output bits.
type refMember struct {
	res   Result
	iters int
	y     uint64
}

// choices reads a schedule's decisions from bytes (zero once they run
// out).
type choices []byte

func (c *choices) intn(n int) int {
	v := 0
	for need := n; need > 1 && len(*c) > 0; need >>= 8 {
		v, *c = v<<8|int((*c)[0]), (*c)[1:]
	}
	return v % n
}

func pick[T any](c *choices, vs ...T) T { return vs[c.intn(len(vs))] }

// refRun is one schedule: the model, the live controller, and each
// side's callbacks (mq the model's, lq the live controller's).
type refRun struct {
	t      *testing.T
	name   string
	k      int
	c      *choices
	m      *refModel
	live   liveCtl
	mq, lq *refLog
}

func (r *refRun) fatalf(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("%s op %d: "+format, append([]any{r.name, r.k}, args...)...)
}

// build makes a fresh live controller of the schedule's configuration.
func (r *refRun) build() (live liveCtl) {
	c, q, err := r.m.c, r.lq, error(nil)
	var pol RecalibratePolicy
	if c.window > 0 {
		pol = &WindowedPolicy{Window: c.window}
	}
	fn := func(v int) Fn { return func(x float64) float64 { return q.fn(v, x, x) } }
	fn2 := func(v int) Fn2 { return func(x, y float64) float64 { return q.fn(v, x, y) } }
	switch c.kind {
	case kLoop:
		live, err = NewLoop(LoopConfig{Name: "ref", Model: r.m.lm, SLA: c.sla, Mode: c.mode, SampleInterval: c.iv, Policy: pol,
			Step: c.step, MinLevel: c.minLevel, Disabled: c.disabled})
	case kFunc:
		live, err = NewFunc(FuncConfig{Name: "ref", Model: r.m.fm, SLA: c.sla, SampleInterval: c.iv, Policy: pol, QoS: q.cmp,
			Disabled: c.disabled}, fn(-1), []Fn{fn(0), fn(1)})
	default:
		live, err = NewFunc2(Func2Config{Name: "ref", Model: r.m.grid, SLA: c.sla, SampleInterval: c.iv, Policy: pol, QoS: q.cmp,
			Disabled: c.disabled}, fn2(-1), []Fn2{fn2(0), fn2(1)})
	}
	if err != nil {
		r.fatalf("build: %v", err)
	}
	if l, ok := live.(*Loop); ok && r.m.sel.Installed {
		l.InstallSelector(r.m.selector())
	}
	return live
}

// refSchedule draws a controller and up to ops operations from c, runs
// each on the model and on the live controller, compares them, and
// returns the number of operations run and which parts of the law ran.
func refSchedule(t *testing.T, name string, c choices, ops int) (int, map[string]bool) {
	cfg := refConfig{kind: c.intn(3), mode: LoopMode(c.intn(2)), sla: pick(&c, 0.05, 0.02, 0.011, 0.005),
		iv: pick(&c, 0, 1, 2, 3, 5, 8), step: pick(&c, 0.0, 3, 4, 10), minLevel: pick(&c, 2.0, 4, 6),
		disabled: c.intn(8) == 0, window: max(0, c.intn(10)-4), calm: c.intn(4) == 0}
	r := &refRun{t: t, name: name, c: &c, m: newRefModel(t, cfg), mq: &refLog{}, lq: &refLog{}}
	m, restored, liveRestored := r.m, false, false
	r.live = r.build()
	// A quarter of the schedules start just under 2³² executions, where the
	// sampling decision leaves the reciprocal for the plain remainder.
	if start := int64(pick(&c, 0, 0, 0, 1<<32-40)); start > 0 {
		m.set(func() { m.count = start })
		switch l := r.live.(type) {
		case *Loop:
			l.count.Store(start)
		case *Func:
			l.count.Store(start)
		case *Func2:
			l.count.Store(start)
		}
	}
	for r.k = 0; r.k < ops && len(c) > 0; r.k++ {
		switch op := c.intn(22); {
		case op < 19:
			r.exec()
		case op == 19: // restored onto the live controller or a fresh one, the window and breaker start over
			onLive := c.intn(2) == 0
			data, err := r.live.MarshalState()
			if err == nil && !onLive {
				r.live = r.build()
			}
			if err == nil {
				err = r.live.RestoreStateJSON(data)
			}
			if err != nil {
				r.fatalf("snapshot→restore: %v", err)
			}
			m.set(func() {
				m.nm, m.windowSum, m.cool = 0, 0, m.baseCool()
				m.iv = int64(cfg.iv) // a snapshot holds the configured interval
				m.brk.State, m.brk.ConsecutiveFailures = BreakerClosed, 0
				if !onLive { // and a fresh one's tallies and record too
					m.lastSeq, m.lastAct = 0, ActNone
					m.sel, m.brk = SelectorStats{Installed: m.sel.Installed}, BreakerStats{}
				}
			})
			restored, liveRestored = restored || !onLive, liveRestored || onLive
		case cfg.kind != kLoop: // a function has no Select stage and no SetLevel
		case op == 20:
			var s Selector
			m.set(func() {
				if m.sel.Installed = !m.sel.Installed; m.sel.Installed {
					s = m.selector()
				}
			})
			r.live.(*Loop).InstallSelector(s)
		default:
			lv := float64(1+c.intn(640)) / 10
			r.live.(*Loop).SetLevel(lv)
			m.set(func() { m.level = lv })
		}
		if got, want := liveView(r.live), m.view(); got != want {
			r.fatalf("live and model diverged\n  live:  %+v\n  model: %+v", got, want)
		}
	}
	var seen map[string]bool
	m.set(func() {
		seen = map[string]bool{[]string{"loop", "func", "func2"}[cfg.kind]: true,
			"adaptive": cfg.kind == kLoop && cfg.mode == Adaptive, "windowed": cfg.window > 1,
			"trip": m.brk.Trips > 0, "probe": m.brk.Trips > 1, // only a probe lets an open breaker trip again
			"panic": m.brk.ContainedPanics > 0, "hit": m.sel.Hits > 0, "correction": m.sel.Corrections > 0,
			"restore": restored, "live-restore": liveRestored, "2^32": m.count > 1<<32,
			"raise-share": m.raised, "declined-decrease": m.blocked, "sized-window": m.sized, "precise-route": m.skipped,
			"measured-past-top": m.reached}
	})
	return r.k, seen
}

// exec runs one execution or one batch on both sides, compares them, and
// holds the live members to the significance invariant: a forced,
// disabled or monitored member runs accurately — a loop to its bound
// without stopping early, a call returning the precise value — and a
// forced or disabled call invokes no approximate version.
func (r *refRun) exec() {
	c, m, kind, n, at := r.c, r.m, r.m.c.kind, 1, -1
	if c.intn(2) == 0 {
		n = 2 + c.intn(5)
	}
	var feat *Features
	if kind == kLoop && n == 1 && c.intn(2) == 0 {
		// A level below 70, declined one time in four (refSelector).
		feat = &Features{Valid: c.intn(6) != 0, Key: float64(c.intn(70) + 100*(c.intn(4)/3) + 1000*c.intn(3))}
	}
	want, off := make([]refMember, n), make([]bool, n)
	bounds, blocks, xs, ys := make([]int, n), make([]uint32, n), make([]float64, n), make([]float64, n)
	m.set(func() {
		first, a, forced, probe, sd := m.begin(n, feat)
		panicIn, kinds := byte(0), [...]string{"RDL", "FC", "FC"}[kind]
		if at = a; at >= 0 && !m.c.calm && c.intn(3) == 0 {
			panicIn = kinds[c.intn(len(kinds))]
		}
		scale, loss := 0.1*float64(1+c.intn(8)), pick(c, 0, 0.5, 0.95, 1, 1.5, 2)*m.c.sla
		for i := range want {
			if bounds[i], blocks[i] = 64, uint32(c.intn(1<<17)); c.intn(3) == 0 {
				bounds[i] = c.intn(65)
			}
			xs[i] = float64(c.intn(1200))/100 - 1 + float64(i)*1e-6 // distinct: names the member
			if ys[i] = xs[i]; kind == kFunc2 {
				ys[i] = float64(c.intn(1100)) / 100
			}
		}
		for _, q := range []*refLog{r.mq, r.lq} {
			q.calls, q.panicIn, q.panicAt, q.scale, q.loss = q.calls[:0], panicIn, xs[max(at, 0)], scale, loss
		}
		for i := range want {
			if r.mq.cur = xs[i]; kind == kLoop {
				want[i], off[i] = m.runLoop(r.mq, bounds[i], first+int64(i), i == at, forced, probe, sd)
			} else {
				want[i], off[i] = m.runFunc(r.mq, xs[i], ys[i], first+int64(i), i == at, forced, probe)
			}
		}
	})
	var got []refMember
	if contained(func() { got = r.runLive(feat, bounds, blocks, xs, ys) }) {
		r.fatalf("a callback panic escaped the live controller")
	}
	if !slices.Equal(got, want) || !slices.Equal(r.lq.calls, r.mq.calls) {
		r.fatalf("executions diverged (%d members)\n  live:  %+v %v\n  model: %+v %v", n, got, r.lq.calls, want, r.mq.calls)
	}
	for i, g := range got {
		accurate := !g.res.Approximated && (kind != kLoop || g.iters == bounds[i]) &&
			(kind == kLoop || g.y == math.Float64bits(xs[i]*ys[i]))
		approx := slices.ContainsFunc(r.lq.calls, func(q refCall) bool { return q.kind == 'F' && q.cur == xs[i] })
		if (off[i] || i == at) && !accurate || off[i] && approx {
			r.fatalf("member %d must run accurately: %+v, calls %v", i, g, r.lq.calls)
		}
	}
}

// runLive runs the op's members on the live controller, through the
// public entry points, and returns their outcomes.
func (r *refRun) runLive(feat *Features, bounds []int, blocks []uint32, xs, ys []float64) (got []refMember) {
	q, n, out, err := r.lq, len(xs), make([]float64, len(xs)), error(nil)
	var e *LoopExec
	var b *LoopBatch
	switch l := r.live.(type) {
	case *Loop:
		switch {
		case n == 1 && feat == nil:
			e, err = l.Begin(q)
		case n == 1:
			e, err = l.ExecFeat(q, *feat)
		default:
			b, err = l.ExecN(n, q)
		}
	case *Func:
		if n == 1 {
			out[0] = l.Call(xs[0])
		} else {
			err = l.CallN(xs, out)
		}
	case *Func2:
		if n == 1 {
			out[0] = l.Call(xs[0], ys[0])
		} else {
			err = l.CallN(xs, ys, out)
		}
	}
	switch {
	case err != nil:
		r.fatalf("%v", err)
	case e != nil:
		q.cur = xs[0]
		it := r.drive(&e.loopMember, bounds[0], blocks[0])
		got = append(got, refMember{res: e.Finish(it), iters: it})
	case b != nil:
		for i := 0; b.Next(); i++ {
			q.cur = xs[i]
			it := r.drive(&b.loopMember, bounds[i], blocks[i])
			got = append(got, refMember{res: b.End(it), iters: it})
		}
		b.Finish()
	default:
		for _, y := range out {
			got = append(got, refMember{y: math.Float64bits(y)})
		}
	}
	return got
}

// drive runs one live member to its bound: a Continue per iteration when
// lcg is odd, else ContinueN blocks of 1–16 iterations drawn from it.
func (r *refRun) drive(m *loopMember, bound int, lcg uint32) (i int) {
	for k := 1; i < bound && k > 0; i += k {
		if k = 0; lcg%2 == 1 && m.Continue(i) {
			k = 1
		} else if lcg%2 == 0 {
			lcg = lcg*1664525 + 1013904222 // stays even
			n := min(1+int(lcg>>28), bound-i)
			if k = m.ContinueN(i, n); k < 0 || k > n {
				r.fatalf("ContinueN(%d, %d) = %d", i, n, k)
			}
		}
	}
	return i
}

// TestReferenceModel runs 200 seeded schedules of 500 operations and
// requires that together they reach every part of the law.
func TestReferenceModel(t *testing.T) {
	rng, seen := rand.New(rand.NewSource(1)), map[string]bool{}
	for seed := 1; seed <= 200; seed++ {
		b := make([]byte, 1<<15)
		rng.Read(b)
		ops, saw := refSchedule(t, fmt.Sprintf("schedule %d", seed), b, 500)
		if ops < 500 {
			t.Fatalf("schedule %d ran out of choices after %d operations", seed, ops)
		}
		for part, ok := range saw {
			seen[part] = seen[part] || ok
		}
	}
	for _, part := range strings.Fields("loop func func2 adaptive windowed trip panic probe hit correction restore live-restore 2^32 raise-share declined-decrease sized-window precise-route measured-past-top") {
		if !seen[part] {
			t.Errorf("no schedule exercised %s", part)
		}
	}
}

// FuzzControllerSchedule is TestReferenceModel with the schedule read
// from the input bytes.
func FuzzControllerSchedule(f *testing.F) {
	f.Add([]byte("\x00\x00\x01\x01\x01\x02\x01\x02\x02\x00\x00"))
	f.Add([]byte("\x01\x01\x00\x02\x01\x00\x00\x01\x00\x00\x04\x00\x05\x00\x13\x14\x13\x14"))
	f.Fuzz(func(t *testing.T, b []byte) {
		refSchedule(t, "input", b, 2000)
	})
}
