// Package cluster is the fault-tolerant sharded serving layer: a
// coordinator scatters each query across shard workers (internal/serve
// instances holding disjoint corpus partitions), gathers the partial
// result pages, and merges them into the unsharded page — degrading
// instead of dying when replicas misbehave. Robustness mechanics:
// per-shard deadline budgets carved from the request deadline, bounded
// retries with jittered exponential backoff that prefer an alternate
// replica, a per-replica circuit breaker (internal/core's state
// machine), and a quorum policy that serves partial coverage as a
// degraded 200 and refuses below-quorum requests with 503 + Retry-After.
//
// The coordinator is also the fleet control plane of the paper's §3.4
// combination search: it periodically pulls each shard's monitored QoS
// loss and calibrated model, corrects the models by observed loss, and
// decomposes the application SLA into per-shard approximation budgets
// with core.CombineSearch, pushing the chosen levels back to every
// replica.
package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"
)

// maxBody bounds how much of a worker response the coordinator will
// read; anything larger is treated as a malformed reply.
const maxBody = 4 << 20

// Transport performs one HTTP exchange against a replica. It is the
// seam between the shard client and the wire: production uses
// HTTPTransport, tests substitute in-process handlers or fault
// injectors without opening sockets.
type Transport interface {
	// Do issues method against base+path with reqBody (nil for GET),
	// appending the response body to buf (which may be nil) and
	// returning the status plus the appended buffer. deadline bounds the
	// whole exchange; the zero time means unbounded. buf is returned
	// even on error so callers can reuse its capacity.
	Do(ctx context.Context, method, base, path string, reqBody []byte, deadline time.Time, buf []byte) (status int, body []byte, err error)
}

// HTTPTransport is the production Transport: HTTP/1.1 to plain http://
// replicas, on connections it keeps itself — one Write of the request,
// one http.ReadResponse of the reply, in the calling goroutine.
//
// A configuration that asks for more than a TCP connection to the
// replica is refused — by New, naming the shard, and by every Do: https
// or credentials in the URL, a Jar, a CheckRedirect, a RoundTripper other
// than an *http.Transport, a proxy for the replica (HTTP_PROXY included),
// Dial, DialTLS*, DisableKeepAlives, MaxConnsPerHost or ResponseHeaderTimeout.
type HTTPTransport struct {
	// Client supplies Timeout and, through its *http.Transport,
	// DialContext; nil means http.DefaultClient. Set it before New or the
	// first Do: how a replica is reached is decided once per base URL.
	Client *http.Client

	// targets holds one *target per base URL.
	targets sync.Map
}

const (
	// maxIdleConns is how many idle connections a target keeps.
	maxIdleConns = 16
	// maxHead bounds a reply's status line and headers: the direct path
	// reads at most maxBody+maxHead bytes per exchange.
	maxHead = 64 << 10
)

// target is what HTTPTransport knows about one base URL: how to dial it,
// the constant parts of a request and the idle connections.
type target struct {
	dial   func(ctx context.Context, network, addr string) (net.Conn, error)
	addr   string // host:port to dial
	prefix string // the base URL's path
	head   string // from the request line's version through the Host header

	mu   sync.Mutex
	idle []*shardConn // a stack: the connection used last is the next one taken
}

// shardConn is one kept connection with the buffers an exchange needs.
type shardConn struct {
	c    net.Conn
	lim  io.LimitedReader // c, bounded per exchange; br reads from it
	br   *bufio.Reader
	body io.LimitedReader // the reply body, bounded by maxBody
	req  []byte
	// expire is the method value sc.cut, made once per connection rather
	// than once per exchange.
	expire func()
}

// cut fails the exchange in flight by moving its deadline into the past:
// what context.AfterFunc runs when the caller's context ends. The
// connection is closed afterwards whether or not the deadline took.
func (sc *shardConn) cut() { _ = sc.c.SetDeadline(time.Unix(1, 0)) }

// parseBase parses a replica's base URL, which must be http:// with a
// host and no credentials. New runs every replica through it, so the
// fleet a coordinator accepts is one HTTPTransport can reach.
func parseBase(base string) (*url.URL, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, err
	}
	if u.Scheme != "http" || u.Host == "" || u.User != nil {
		return nil, fmt.Errorf("cluster: replica URL %q: want http://host[:port][/path] without credentials", base)
	}
	return u, nil
}

// target returns what is known about base, working it out on first use.
func (t *HTTPTransport) target(base string) (*target, error) {
	if v, ok := t.targets.Load(base); ok {
		return v.(*target), nil
	}
	u, err := parseBase(base)
	if err != nil {
		return nil, err
	}
	dial, err := t.dialer(u)
	if err != nil {
		return nil, err
	}
	tg := &target{dial: dial, addr: u.Host, prefix: u.EscapedPath(), head: " HTTP/1.1\r\nHost: " + u.Host + "\r\n"}
	if u.Port() == "" {
		tg.addr = net.JoinHostPort(u.Hostname(), "80")
	}
	v, _ := t.targets.LoadOrStore(base, tg)
	return v.(*target), nil
}

// dialer returns how to open a connection to u, or why the configuration
// asks for more than that (HTTPTransport lists what is refused).
func (t *HTTPTransport) dialer(u *url.URL) (func(ctx context.Context, network, addr string) (net.Conn, error), error) {
	c, rt := t.Client, http.RoundTripper(http.DefaultTransport)
	if c == nil {
		c = http.DefaultClient
	}
	if c.Transport != nil {
		rt = c.Transport
	}
	tr, ok := rt.(*http.Transport)
	if !ok || c.Jar != nil || c.CheckRedirect != nil || tr.Dial != nil || tr.DialTLS != nil || tr.DialTLSContext != nil ||
		tr.DisableKeepAlives || tr.MaxConnsPerHost != 0 || tr.ResponseHeaderTimeout != 0 {
		return nil, fmt.Errorf("cluster: HTTPTransport takes a Client without Jar or CheckRedirect whose Transport (a %T) is an *http.Transport "+
			"without Dial, DialTLS, DialTLSContext, DisableKeepAlives, MaxConnsPerHost or ResponseHeaderTimeout", rt)
	}
	if tr.Proxy != nil {
		if p, err := tr.Proxy(&http.Request{URL: u, Host: u.Host}); err != nil || p != nil {
			return nil, fmt.Errorf("cluster: %s is reached through a proxy (%q, %v); HTTPTransport dials replicas directly", u.Host, p.Redacted(), err)
		}
	}
	if tr.DialContext != nil {
		return tr.DialContext, nil
	}
	return new(net.Dialer).DialContext, nil
}

// CloseIdleConnections closes the connections the transport keeps for
// its next exchanges. One in use is closed or kept as usual when its
// exchange ends.
func (t *HTTPTransport) CloseIdleConnections() {
	t.targets.Range(func(_, v any) bool {
		tg := v.(*target)
		tg.mu.Lock()
		idle := tg.idle
		tg.idle = nil
		tg.mu.Unlock()
		for _, sc := range idle {
			_ = sc.c.Close() // idle: nothing written is lost
		}
		return true
	})
}

// Do implements Transport.
func (t *HTTPTransport) Do(ctx context.Context, method, base, path string, reqBody []byte, deadline time.Time, buf []byte) (int, []byte, error) {
	tg, err := t.target(base)
	if err != nil {
		return 0, buf, err
	}
	// The request line is written from these as they are: a space or a
	// line break in one would end it early and start a second request. A
	// reply to HEAD or CONNECT is framed by the request's method, which
	// http.ReadResponse is not given.
	if method == "" || method == http.MethodHead || method == http.MethodConnect ||
		hasCTLOrSpace(method) || hasCTLOrSpace(path) {
		return 0, buf, fmt.Errorf("cluster: refusing request %q %q to %s: HEAD, CONNECT, a control character or a space", method, path, base)
	}
	if t.Client != nil && t.Client.Timeout > 0 {
		if d := time.Now().Add(t.Client.Timeout); deadline.IsZero() || d.Before(deadline) {
			deadline = d
		}
	}
	for {
		status, body := 0, buf
		sc := tg.take()
		kept := sc != nil
		if !kept {
			sc, err = tg.open(ctx, deadline)
		}
		if err == nil {
			status, body, err = tg.exchange(ctx, sc, method, path, reqBody, deadline, buf)
		}
		if kept && errors.Is(err, errNoReply) {
			// The worker closed the connection while it sat idle: nothing
			// was answered, both methods the fleet uses are idempotent, and
			// the replica is not at fault. Take the next one, or dial.
			err = nil
			continue
		}
		if err != nil && err != ctx.Err() {
			// Named the way Client.Do names its failures.
			err = &url.Error{Op: method, URL: base + path, Err: err}
		}
		return status, body, err
	}
}

func hasCTLOrSpace(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] <= ' ' || s[i] == 0x7f {
			return true
		}
	}
	return false
}

// take pops the idle connection used last, or returns nil.
func (tg *target) take() (sc *shardConn) {
	tg.mu.Lock()
	if n := len(tg.idle); n > 0 {
		sc, tg.idle[n-1] = tg.idle[n-1], nil
		tg.idle = tg.idle[:n-1]
	}
	tg.mu.Unlock()
	return sc
}

// put keeps sc for the next exchange if there is room for it.
func (tg *target) put(sc *shardConn) {
	tg.mu.Lock()
	room := len(tg.idle) < maxIdleConns
	if room {
		tg.idle = append(tg.idle, sc)
	}
	tg.mu.Unlock()
	if !room {
		_ = sc.c.Close() // idle: nothing written is lost
	}
}

// open dials the target, within deadline when there is one.
func (tg *target) open(ctx context.Context, deadline time.Time) (*shardConn, error) {
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	c, err := tg.dial(ctx, "tcp", tg.addr)
	if err != nil {
		return nil, err
	}
	sc := &shardConn{c: c}
	sc.lim.R = c
	sc.br = bufio.NewReader(&sc.lim)
	sc.expire = sc.cut
	return sc, nil
}

var (
	// errNoReply marks an exchange that failed before one byte of a reply
	// arrived, for a reason other than its deadline or its context.
	errNoReply = errors.New("connection closed before a reply")
	// errBodyTooLarge refuses a reply body above maxBody.
	errBodyTooLarge = errors.New("cluster: response body exceeds limit")
)

// exchange writes one request to sc and reads its reply, appending the
// body to buf. It owns sc from here: the connection goes back on the idle
// stack only if the reply was read to its end, did not ask to close,
// left nothing behind it and ctx had not ended; otherwise it is closed.
func (tg *target) exchange(ctx context.Context, sc *shardConn, method, path string, reqBody []byte, deadline time.Time, buf []byte) (int, []byte, error) {
	_ = sc.c.SetDeadline(deadline) // a connection that cannot take one fails the write
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, sc.expire)
	}
	status, body, reusable, err := sc.roundTrip(tg, method, path, reqBody, buf)
	if stop != nil && !stop() {
		// ctx ended and cut the deadline, during the exchange or just
		// after it. A failure is then the caller's own doing.
		reusable = false
		if err != nil {
			err = ctx.Err()
		}
	}
	if reusable {
		tg.put(sc)
	} else {
		_ = sc.c.Close() // the exchange is over; its outcome is already decided
	}
	return status, body, err
}

// roundTrip is the exchange proper: one Write, one http.ReadResponse, the
// body to its end.
func (sc *shardConn) roundTrip(tg *target, method, path string, reqBody []byte, buf []byte) (status int, body []byte, reusable bool, err error) {
	b := append(sc.req[:0], method...)
	b = append(b, ' ')
	if tg.prefix == "" && (path == "" || path[0] != '/') {
		b = append(b, '/')
	}
	b = append(b, tg.prefix...)
	b = append(b, path...)
	b = append(b, tg.head...)
	if reqBody != nil {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(reqBody)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, reqBody...)
	sc.req = b

	sc.lim.N = maxBody + maxHead
	if _, err = sc.c.Write(b); err == nil {
		_, err = sc.br.Peek(1)
	}
	if err != nil {
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			err = fmt.Errorf("%w: %v", errNoReply, err)
		}
		return 0, buf, false, err
	}
	resp, err := http.ReadResponse(sc.br, nil)
	if err != nil {
		return 0, buf, false, err
	}
	sc.body = io.LimitedReader{R: resp.Body, N: maxBody + 1}
	if buf, err = appendAll(buf, &sc.body); err == nil && len(buf) > maxBody {
		err = errBodyTooLarge
	}
	// Reading to io.EOF took the whole body, trailers included, off the
	// connection; what is still buffered then belongs to no exchange.
	return resp.StatusCode, buf, err == nil && !resp.Close && sc.br.Buffered() == 0, err
}

// appendAll reads r to EOF, appending into buf without the intermediate
// copies of io.ReadAll (which always allocates its own buffer).
func appendAll(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
