package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"time"
)

// The yardstick: what the box is doing to the benchmark at this moment.
//
// The reference box is two hyperthreads of a shared host. Its clock is
// steady: a chain of dependent multiplies or square roots reads the same
// within a few percent all day. What moves, by up to a factor of two and
// for minutes at a time, is everything that keeps the core's ports busy:
// a loop of loads and stores over 16 KB, an atomic add, an allocation, a
// system call. That is what a busy sibling hyperthread does, it is not
// the program's doing, and no statistic over one run removes it, because
// one run sits inside one such stretch.
//
// So before and after every block the bench times two small probes of its
// own that touch nothing of the repository: a load-and-store loop and a
// loopback echo. Their cost over what they cost on the quiet box is the
// contention c: 1 there, up to 2 beside a busy sibling. A workload that
// spends the share s of its time in work the sibling slows takes
// 1 + s(c-1) times as long, and the timing metrics are reported with that
// factor divided out: as they would read on the quiet box, where nothing
// is corrected. s is two constants per workload (contentionShare), one
// for its blocks and one for its set-up, fitted from logged runs; see
// README.md. Ratios of modes within a block, counts and memory are
// reported as measured.
type yardstick struct {
	vec  []float64
	conn net.Conn
	done chan struct{}
}

// reading is one reading of the two probes, each over its quiet cost.
type reading struct{ store, echo float64 }

// contention is the geometric mean of the two probes.
func (r reading) contention() float64 { return math.Sqrt(r.store * r.echo) }

// between is the reading halfway between two.
func between(a, b reading) reading {
	return reading{(a.store + b.store) / 2, (a.echo + b.echo) / 2}
}

// What one sample of each probe costs on the quiet reference box: the
// cost that one sample in twenty of a half-hour log came in under.
const (
	yardStorePasses = 100
	yardStoreQuiet  = 148 * time.Microsecond
	yardEchoTrips   = 40
	yardEchoQuiet   = 343 * time.Microsecond
)

var yard *yardstick

// startYardstick opens the process's yardstick; stop closes it.
func startYardstick() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	y := &yardstick{vec: make([]float64, 2048), done: make(chan struct{})}
	go func() {
		defer close(y.done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c)
	}()
	if y.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-y.done
		return err
	}
	for i := range y.vec {
		y.vec[i] = float64(i)
	}
	yard = y
	return nil
}

// stop closes the echo connection and waits for its goroutine.
func (y *yardstick) stop() {
	if y == nil {
		return
	}
	y.conn.Close()
	<-y.done
}

// store is the load-and-store probe: yardStorePasses passes of add and
// store over 16 KB, all of it in the first-level cache.
func (y *yardstick) store() time.Duration {
	t0 := time.Now()
	acc := 0.0
	for r := 0; r < yardStorePasses; r++ {
		for i := range y.vec {
			acc += y.vec[i]
			y.vec[i] = acc * 1e-9
		}
	}
	sink += acc
	return time.Since(t0)
}

// echo is the system-call probe: yardEchoTrips round trips of 64 bytes
// over a loopback connection to a goroutine that copies them back.
func (y *yardstick) echo() time.Duration {
	var buf [64]byte
	t0 := time.Now()
	for i := 0; i < yardEchoTrips; i++ {
		if _, err := y.conn.Write(buf[:]); err != nil {
			return 0
		}
		if _, err := io.ReadFull(y.conn, buf[:]); err != nil {
			return 0
		}
	}
	return time.Since(t0)
}

// read times both probes. Each is the median of three samples, so that
// a timer tick in one of them is outvoted. Without a yardstick (the smoke
// test), or when the echo fails, the reading is the quiet box's.
func (y *yardstick) read() reading {
	if y == nil {
		return reading{1, 1}
	}
	var st, ec [3]float64
	for i := range st {
		st[i] = float64(y.store()) / float64(yardStoreQuiet)
		ec[i] = float64(y.echo()) / float64(yardEchoQuiet)
	}
	r := reading{median(st[:]), median(ec[:])}
	if r.echo == 0 {
		return reading{1, 1}
	}
	return r
}

// slowdown is how many times longer than on the quiet box a stretch of
// work with contention share s takes under reading r.
func slowdown(s float64, r reading) float64 {
	return 1 + s*(r.contention()-1)
}

// quietSeconds runs a set-up and returns how long it would have taken on
// the quiet box: its wall time over the slowdown at the reading halfway
// between the one before and the one after it. A set-up of several
// seconds calls lap between its stages; each stage is then corrected by
// the readings around it.
func quietSeconds(workload string, fn func(lap func()) error) (float64, error) {
	share := contentionShare[workload].setup
	quiet := 0.0
	last, t0 := yard.read(), time.Now()
	lap := func() {
		wall := time.Since(t0)
		now := yard.read()
		r := between(last, now)
		yardLogf(workload, "setup", 0, wall, wall, nil, r)
		quiet += wall.Seconds() / slowdown(share, r)
		last, t0 = now, time.Now()
	}
	err := fn(lap)
	lap()
	return quiet, err
}

// yardLogf prints one block or set-up with its reading to standard error
// when BENCH_YARD is set: the input of fit_share.py, which fits
// contentionShare.
func yardLogf(workload, what string, b int, wall, cpu time.Duration, lats []float64, r reading) {
	if yardLogOn {
		fmt.Fprintf(os.Stderr, "Y %s %s %d %.6f %.6f %.3f %.3f %.4f %.4f\n", workload, what, b, wall.Seconds(), cpu.Seconds(),
			median(lats), quantile(lats, tailPercentile), r.store, r.echo)
	}
}

var yardLogOn = os.Getenv("BENCH_YARD") != ""
