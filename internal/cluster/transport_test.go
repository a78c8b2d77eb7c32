package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"green/internal/wire"
)

// directTransport is an HTTPTransport on its direct path whose
// connections are opened through the *http.Transport's DialContext, the
// way the benchmark counts them.
func directTransport(t *testing.T) (*HTTPTransport, *atomic.Int64) {
	t.Helper()
	dials := new(atomic.Int64)
	var d net.Dialer
	tr := &HTTPTransport{Client: &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}}}
	t.Cleanup(tr.CloseIdleConnections)
	return tr, dials
}

// idleConns is how many connections tr keeps for base.
func idleConns(t *testing.T, tr *HTTPTransport, base string) int {
	t.Helper()
	tg, err := tr.target(base)
	if err != nil {
		t.Fatal(err)
	}
	tg.mu.Lock()
	defer tg.mu.Unlock()
	return len(tg.idle)
}

// socketWorker serves h on a loopback socket.
func socketWorker(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// rawWorker is a loopback listener that hands each connection to script
// on a goroutine of its own and closes it when script returns: a worker
// that answers with whatever bytes the test wants.
func rawWorker(t testing.TB, script func(c net.Conn, br *bufio.Reader)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				script(c, bufio.NewReader(c))
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return "http://" + ln.Addr().String()
}

// blockingWorker holds every request until the test ends or the caller
// hangs up.
func blockingWorker(t *testing.T) *httptest.Server {
	t.Helper()
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(func() {
		close(release)
		srv.Close()
	})
	return srv
}

// coordinatorOver is a coordinator of one shard whose replicas are the
// given base URLs, reached through tr.
func coordinatorOver(t *testing.T, cfg Config, tr Transport, replicas ...string) *Coordinator {
	t.Helper()
	cfg.Shards = []ShardSpec{{Name: "s0", Replicas: replicas}}
	cfg.Transport = tr
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return co
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// TestDirectStaleConnectionRetried: the worker closed a connection while
// the transport kept it idle. The next exchange finds out, opens another
// and succeeds, and the replica is not charged for it.
func TestDirectStaleConnectionRetried(t *testing.T) {
	page := workerJSON(t, []int{4, 2}, []float64{7, 3}, false)
	srv := socketWorker(t, okWorker(page))
	tr, dials := directTransport(t)
	co := coordinatorOver(t, Config{Retries: -1}, tr, srv.URL)
	h := co.Handler()

	if rec := get(t, h, "/search?q=hello"); rec.Code != http.StatusOK {
		t.Fatalf("first request: status %d: %s", rec.Code, rec.Body)
	}
	if n := idleConns(t, tr, srv.URL); n != 1 {
		t.Fatalf("%d connections kept after one exchange, want 1", n)
	}
	srv.CloseClientConnections()
	rec := get(t, h, "/search?q=hello")
	if rec.Code != http.StatusOK || decodeCoord(t, rec.Body.Bytes()).Degraded {
		t.Fatalf("request over a closed kept connection: status %d: %s", rec.Code, rec.Body)
	}
	rep := co.shards[0].replicas[0]
	if f, a := rep.failures.Load(), rep.attempts.Load(); f != 0 || a != 2 {
		t.Errorf("replica charged %d failures over %d attempts, want 0 over 2", f, a)
	}
	if got := dials.Load(); got != 2 {
		t.Errorf("%d connections opened, want 2", got)
	}
}

// TestDirectCutReplyIsAFailure: a reply that stops after its status line
// is the replica's failure even on a kept connection — a byte of it
// arrived, so nothing is retried — and the connection is not kept.
func TestDirectCutReplyIsAFailure(t *testing.T) {
	page := workerJSON(t, []int{4, 2}, []float64{7, 3}, false)
	var accepted atomic.Int64
	base := rawWorker(t, func(c net.Conn, br *bufio.Reader) {
		accepted.Add(1)
		if _, err := http.ReadRequest(br); err != nil {
			return
		}
		io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: "+strconv.Itoa(len(page))+"\r\n\r\n")
		c.Write(page)
		if _, err := http.ReadRequest(br); err != nil {
			return
		}
		io.WriteString(c, "HTTP/1.1 200 OK\r\n")
	})
	tr, _ := directTransport(t)
	co := coordinatorOver(t, Config{Retries: -1}, tr, base)
	h := co.Handler()

	if rec := get(t, h, "/search?q=hello"); rec.Code != http.StatusOK {
		t.Fatalf("first request: status %d: %s", rec.Code, rec.Body)
	}
	if rec := get(t, h, "/search?q=hello"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("cut reply: status %d: %s", rec.Code, rec.Body)
	}
	if f := co.shards[0].replicas[0].failures.Load(); f != 1 {
		t.Errorf("replica charged %d failures, want 1", f)
	}
	if n := accepted.Load(); n != 1 {
		t.Errorf("worker saw %d connections, want 1: a cut reply is not retried", n)
	}
	if n := idleConns(t, tr, base); n != 0 {
		t.Errorf("%d connections kept after a cut reply", n)
	}
}

// TestDirectReplyFraming: what decides whether a connection is kept is
// in the reply, and net/http reads it: Connection: close, a chunked body,
// bytes after the body.
func TestDirectReplyFraming(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 3<<10/16)
	cases := []struct {
		name   string
		worker func(t *testing.T) string
		body   []byte
		kept   int
	}{
		{"content-length", func(t *testing.T) string {
			return socketWorker(t, okWorker(big)).URL
		}, big, 1},
		{"connection close", func(t *testing.T) string {
			return socketWorker(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Connection", "close")
				w.Write(big)
			})).URL
		}, big, 0},
		{"chunked above 2 KiB", func(t *testing.T) string {
			return socketWorker(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				for i := 0; i < len(big); i += 1 << 10 {
					w.Write(big[i : i+1<<10])
					w.(http.Flusher).Flush()
				}
			})).URL
		}, big, 1},
		{"bytes after the body", func(t *testing.T) string {
			return rawWorker(t, func(c net.Conn, br *bufio.Reader) {
				for {
					if _, err := http.ReadRequest(br); err != nil {
						return
					}
					io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokHTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nstale")
				}
			})
		}, []byte("ok"), 0},
		{"no content", func(t *testing.T) string {
			return rawWorker(t, func(c net.Conn, br *bufio.Reader) {
				for {
					if _, err := http.ReadRequest(br); err != nil {
						return
					}
					io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
				}
			})
		}, nil, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.worker(t)
			tr, dials := directTransport(t)
			for i := 0; i < 3; i++ {
				status, body, err := tr.Do(context.Background(), http.MethodGet, base, wire.PathStats, nil, time.Now().Add(2*time.Second), nil)
				if err != nil || status != http.StatusOK || !bytes.Equal(body, tc.body) {
					t.Fatalf("exchange %d: status %d, %d bytes, err %v", i, status, len(body), err)
				}
				if n := idleConns(t, tr, base); n != tc.kept {
					t.Fatalf("exchange %d: %d connections kept, want %d", i, n, tc.kept)
				}
			}
			if want := int64(1 + 2*(1-tc.kept)); dials.Load() != want {
				t.Errorf("%d connections opened over 3 exchanges, want %d", dials.Load(), want)
			}
		})
	}
}

// TestDirectPostDeliversBody: a budget push arrives as one well-formed
// POST, byte for byte, under the base URL's own path.
func TestDirectPostDeliversBody(t *testing.T) {
	type seen struct {
		method, uri, ctype string
		length             int64
		body               []byte
	}
	got := make(chan seen, 1)
	srv := socketWorker(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		got <- seen{r.Method, r.RequestURI, r.Header.Get("Content-Type"), r.ContentLength, b}
		io.WriteString(w, "{}")
	}))
	tr, _ := directTransport(t)
	push := []byte("{\"controller\":\"serve.match\",\"level\":3,\"note\":\"\\r\\n\\u0000 \"}")
	for _, tc := range []struct{ base, uri string }{
		{srv.URL, wire.PathBudget},
		{srv.URL + "/fleet/a", "/fleet/a" + wire.PathBudget},
	} {
		status, body, err := tr.Do(context.Background(), http.MethodPost, tc.base, wire.PathBudget, push, time.Now().Add(2*time.Second), nil)
		if err != nil || status != http.StatusOK || string(body) != "{}" {
			t.Fatalf("%s: status %d, body %q, err %v", tc.base, status, body, err)
		}
		s := <-got
		if s.method != http.MethodPost || s.uri != tc.uri || s.ctype != "application/json" ||
			s.length != int64(len(push)) || !bytes.Equal(s.body, push) {
			t.Errorf("%s: worker saw %+v (body %q)", tc.base, s, s.body)
		}
	}
}

// TestDirectCancellation: the caller's context ending cuts an exchange
// short, surfaces as its error, and costs the connection.
func TestDirectCancellation(t *testing.T) {
	srv := blockingWorker(t)
	tr, _ := directTransport(t)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	_, _, err := tr.Do(ctx, http.MethodGet, srv.URL, "/search?q=x", nil, time.Now().Add(5*time.Second), nil)
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("a cancelled exchange took %v", elapsed)
	}
	if n := idleConns(t, tr, srv.URL); n != 0 {
		t.Errorf("%d connections kept after a cancelled exchange", n)
	}
	// A context that ended beforehand fails the dial the same way.
	if _, _, err := tr.Do(ctx, http.MethodGet, srv.URL, "/search?q=x", nil, time.Time{}, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("ended context: err = %v", err)
	}

	// On a kept connection the cut races the exchange, and an exchange
	// that wins is a success; either way the connection has a deadline in
	// the past coming to it and is not kept.
	ok := socketWorker(t, okWorker([]byte("{}")))
	for i := 0; i < 5; i++ {
		if _, _, err := tr.Do(context.Background(), http.MethodGet, ok.URL, "/search?q=x", nil, time.Time{}, nil); err != nil {
			t.Fatal(err)
		}
		if n := idleConns(t, tr, ok.URL); n != 1 {
			t.Fatalf("%d connections kept after a plain exchange", n)
		}
		if _, _, err := tr.Do(ctx, http.MethodGet, ok.URL, "/search?q=x", nil, time.Time{}, nil); err != nil && err != context.Canceled {
			t.Fatalf("ended context on a kept connection: err = %v", err)
		}
		if n := idleConns(t, tr, ok.URL); n != 0 {
			t.Fatalf("%d connections kept after an exchange its context cut", n)
		}
	}
}

// TestDirectDeadlines: the attempt's deadline and Client.Timeout each
// bound the exchange, whichever is sooner, and expire as timeouts.
func TestDirectDeadlines(t *testing.T) {
	srv := blockingWorker(t)
	for _, tc := range []struct {
		name     string
		timeout  time.Duration // Client.Timeout
		deadline time.Duration // 0: none
	}{
		{"deadline", 0, 30 * time.Millisecond},
		{"client timeout", 30 * time.Millisecond, 0},
		{"sooner deadline", 5 * time.Second, 30 * time.Millisecond},
		{"sooner client timeout", 30 * time.Millisecond, 5 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, _ := directTransport(t)
			tr.Client.Timeout = tc.timeout
			var deadline time.Time
			if tc.deadline > 0 {
				deadline = time.Now().Add(tc.deadline)
			}
			// The context only stops a transport that honours neither.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			start := time.Now()
			_, _, err := tr.Do(ctx, http.MethodGet, srv.URL, "/search?q=x", nil, deadline, nil)
			if !isTimeout(err) || !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Errorf("err = %v, want a timeout", err)
			}
			if elapsed := time.Since(start); elapsed < 30*time.Millisecond || elapsed > time.Second {
				t.Errorf("returned after %v, want about 30ms", elapsed)
			}
			if n := idleConns(t, tr, srv.URL); n != 0 {
				t.Errorf("%d connections kept after a timeout", n)
			}
		})
	}
}

// TestDirectDeadlineBudgetsRetry: a replica that never answers uses up
// its share of the request budget, is charged, and the retry still has
// time to reach the other replica.
func TestDirectDeadlineBudgetsRetry(t *testing.T) {
	page := workerJSON(t, []int{4, 2}, []float64{7, 3}, false)
	slow, ok := blockingWorker(t), socketWorker(t, okWorker(page))
	tr, _ := directTransport(t)
	co := coordinatorOver(t, Config{Retries: 1, RequestTimeout: 200 * time.Millisecond}, tr, slow.URL, ok.URL)
	start := time.Now()
	rec := get(t, co.Handler(), "/search?q=hello")
	if rec.Code != http.StatusOK || decodeCoord(t, rec.Body.Bytes()).Degraded {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond || elapsed > 190*time.Millisecond {
		t.Errorf("answered after %v: the first attempt's share of 200ms is 100ms", elapsed)
	}
	if f := co.shards[0].replicas[0].failures.Load(); f != 1 {
		t.Errorf("slow replica charged %d failures, want 1", f)
	}
}

// TestDirectBounds: a reply's head and its body are each refused above
// their bound instead of being buffered.
func TestDirectBounds(t *testing.T) {
	t.Run("head", func(t *testing.T) {
		line := []byte("X-Pad: " + strings.Repeat("a", 1<<10) + "\r\n")
		base := rawWorker(t, func(c net.Conn, br *bufio.Reader) {
			if _, err := http.ReadRequest(br); err != nil {
				return
			}
			io.WriteString(c, "HTTP/1.1 200 OK\r\n")
			for sent := 0; sent < maxBody+maxHead+(1<<20); sent += len(line) {
				if _, err := c.Write(line); err != nil {
					return
				}
			}
			io.WriteString(c, "Content-Length: 2\r\n\r\nok")
		})
		tr, _ := directTransport(t)
		status, body, err := tr.Do(context.Background(), http.MethodGet, base, wire.PathStats, nil, time.Now().Add(10*time.Second), nil)
		if err == nil || isTimeout(err) {
			t.Errorf("status %d, %d bytes, err %v: want the head refused", status, len(body), err)
		}
		if n := idleConns(t, tr, base); n != 0 {
			t.Errorf("%d connections kept", n)
		}
	})
	t.Run("body", func(t *testing.T) {
		for _, chunked := range []bool{false, true} {
			srv := socketWorker(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if chunked {
					w.(http.Flusher).Flush()
				}
				w.Write(make([]byte, maxBody+1))
			}))
			tr, _ := directTransport(t)
			status, body, err := tr.Do(context.Background(), http.MethodGet, srv.URL, wire.PathStats, nil, time.Now().Add(10*time.Second), nil)
			if !errors.Is(err, errBodyTooLarge) || status != http.StatusOK || len(body) > maxBody+1 {
				t.Errorf("chunked=%v: status %d, %d bytes, err %v", chunked, status, len(body), err)
			}
			if n := idleConns(t, tr, srv.URL); n != 0 {
				t.Errorf("chunked=%v: %d connections kept", chunked, n)
			}
		}
	})
}

// TestDirectRefusesRequestSmuggling: the seam takes arbitrary strings
// and the direct path writes them into the request line, so one with a
// space or a control byte in it is refused before a connection is opened.
func TestDirectRefusesRequestSmuggling(t *testing.T) {
	srv := socketWorker(t, okWorker([]byte("{}")))
	tr, dials := directTransport(t)
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/search?q=a b"},
		{http.MethodGet, "/search?q=a\r\nHost: evil\r\n\r\nGET /budget HTTP/1.1"},
		{http.MethodGet, "/search\n"},
		{http.MethodGet, "/a\tb"},
		{http.MethodGet, "/a\x7fb"},
		{http.MethodGet, "/a\x00"},
		{"GET /budget HTTP/1.1\r\nX:", "/search"},
		{"GE T", "/search"},
		{"", "/search"},
		{http.MethodHead, "/search"},
		{http.MethodConnect, "/search"},
	} {
		status, _, err := tr.Do(context.Background(), tc.method, srv.URL, tc.path, nil, time.Now().Add(time.Second), nil)
		if err == nil {
			t.Errorf("%q %q: accepted with status %d", tc.method, tc.path, status)
		}
	}
	if n := dials.Load(); n != 0 {
		t.Errorf("%d connections opened for refused requests", n)
	}
	// And the escaped form of the same query goes through.
	if status, _, err := tr.Do(context.Background(), http.MethodGet, srv.URL, "/search?q=a+b%0d%0a", nil, time.Now().Add(time.Second), nil); err != nil || status != http.StatusOK {
		t.Errorf("escaped query: status %d, err %v", status, err)
	}
}

// countingRoundTripper is a caller's wrapper around a RoundTripper.
type countingRoundTripper struct {
	next http.RoundTripper
	n    atomic.Int64
}

func (c *countingRoundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.next.RoundTrip(r)
}

// TestTransportPathChoice: a configuration is accepted only when nothing
// in it asks for more than a TCP connection to the replica. A refused one
// fails New, naming the shard, and fails every Do.
func TestTransportPathChoice(t *testing.T) {
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	proxy := &url.URL{Scheme: "http", Host: "127.0.0.1:3128"}
	dialTLS := func(ctx context.Context, network, addr string) (net.Conn, error) { return nil, errors.New("unused") }
	for _, tc := range []struct {
		name     string
		base     string
		client   *http.Client
		accepted bool
	}{
		{"nil client", "http://w1:8080", nil, true},
		{"zero client", "http://w1:8080", &http.Client{}, true},
		{"client timeout", "http://w1:8080", &http.Client{Timeout: time.Second}, true},
		{"stock transport", "http://w1", &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}, true},
		{"caller's dialer", "http://w1:8080", &http.Client{Transport: &http.Transport{DialContext: dialTLS}}, true},
		{"proxy func that declines", "http://w1:8080", &http.Client{Transport: &http.Transport{
			Proxy: func(*http.Request) (*url.URL, error) { return nil, nil }}}, true},
		{"base path", "http://w1:8080/fleet/a", nil, true},
		{"https", "https://w1:8443", nil, false},
		{"credentials in the URL", "http://user:pw@w1:8080", nil, false},
		{"cookie jar", "http://w1:8080", &http.Client{Jar: jar}, false},
		{"redirect policy", "http://w1:8080", &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return nil }}, false},
		{"wrapped round tripper", "http://w1:8080", &http.Client{Transport: &countingRoundTripper{next: http.DefaultTransport}}, false},
		{"proxy", "http://w1:8080", &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(proxy)}}, false},
		{"proxy func that fails", "http://w1:8080", &http.Client{Transport: &http.Transport{
			Proxy: func(*http.Request) (*url.URL, error) { return nil, errors.New("no") }}}, false},
		{"TLS dialer", "http://w1:8080", &http.Client{Transport: &http.Transport{DialTLSContext: dialTLS}}, false},
		{"keep-alives off", "http://w1:8080", &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}, false},
		{"connection cap", "http://w1:8080", &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2}}, false},
		{"header timeout", "http://w1:8080", &http.Client{Transport: &http.Transport{ResponseHeaderTimeout: time.Second}}, false},
	} {
		tr := &HTTPTransport{Client: tc.client}
		_, err := New(Config{Shards: []ShardSpec{{Name: "s7", Replicas: []string{tc.base}}}, Transport: tr})
		if accepted := err == nil; accepted != tc.accepted {
			t.Errorf("%s: New accepted = %v (%v), want %v", tc.name, accepted, err, tc.accepted)
		}
		if tc.accepted {
			continue
		}
		if !strings.Contains(fmt.Sprint(err), `shard "s7"`) {
			t.Errorf("%s: New's error does not name the shard: %v", tc.name, err)
		}
		if _, _, err := tr.Do(context.Background(), http.MethodGet, tc.base, wire.PathStats, nil, time.Now().Add(time.Second), nil); err == nil {
			t.Errorf("%s: Do accepted a refused configuration", tc.name)
		}
	}
	if tg, _ := (&HTTPTransport{}).target("http://w1"); tg.addr != "w1:80" {
		t.Errorf("default port: dial address %q", tg.addr)
	}
}

// TestDirectConcurrentExchanges: 64 callers on one base URL each get
// their own reply, and the idle stack stays within its bound.
func TestDirectConcurrentExchanges(t *testing.T) {
	srv := socketWorker(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, r.URL.RawQuery)
	}))
	tr, dials := directTransport(t)
	var wg sync.WaitGroup
	for c := 0; c < 64; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf []byte
			for r := 0; r < 20; r++ {
				want := "q=" + strconv.Itoa(c) + "+" + strconv.Itoa(r)
				status, body, err := tr.Do(context.Background(), http.MethodGet, srv.URL, "/search?"+want, nil, time.Now().Add(5*time.Second), buf[:0])
				if err != nil || status != http.StatusOK || string(body) != want {
					t.Errorf("caller %d: status %d, body %q, want %q, err %v", c, status, body, want, err)
					return
				}
				buf = body
			}
		}(c)
	}
	wg.Wait()
	if n := idleConns(t, tr, srv.URL); n < 1 || n > maxIdleConns {
		t.Errorf("%d connections kept, want 1..%d", n, maxIdleConns)
	}
	if n := dials.Load(); n > 64*20/2 {
		t.Errorf("%d connections opened for %d exchanges: nothing is being reused", n, 64*20)
	}
}

// openFDs counts the process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no descriptor table to read: %v", err)
	}
	return len(ents)
}

// TestFleetTeardownLeavesNothing: once a fleet's transport has closed its
// kept connections and its workers are gone, the process holds the
// goroutines and descriptors it held before.
func TestFleetTeardownLeavesNothing(t *testing.T) {
	page := workerJSON(t, []int{4, 2}, []float64{7, 3}, false)
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)

	var srvs []*httptest.Server
	var shards []ShardSpec
	for i := 0; i < 3; i++ {
		srv := httptest.NewServer(okWorker(page))
		srvs = append(srvs, srv)
		shards = append(shards, ShardSpec{Replicas: []string{srv.URL}})
	}
	tr := &HTTPTransport{}
	co, err := New(Config{Shards: shards, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	co.pool.idle = 5 * time.Millisecond
	h := co.Handler()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				if rec := get(t, h, "/search?q=ocean+tree"); rec.Code != http.StatusOK {
					t.Errorf("status %d: %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
	kept := 0
	for _, srv := range srvs {
		kept += idleConns(t, tr, srv.URL)
	}
	if kept < 3 || openFDs(t) < fds+2*kept {
		t.Fatalf("%d connections kept, %d descriptors open over a baseline of %d: the fleet is not holding sockets", kept, openFDs(t), fds)
	}

	tr.CloseIdleConnections()
	for _, srv := range srvs {
		srv.Close()
	}
	eventually(t, "goroutines and descriptors are back at baseline", func() bool {
		return runtime.NumGoroutine() <= goroutines && openFDs(t) <= fds
	})
}

// FuzzShardExchange: whatever bytes a worker answers with, however they
// are split across writes and whether or not it hangs up afterwards, an
// exchange does not panic, returns by its deadline and returns no more
// than maxBody — twice, so that whatever the first left behind is what
// the second starts from — and the transport still reaches a worker that
// behaves.
func FuzzShardExchange(f *testing.F) {
	page := (&wire.SearchReply{Query: "q", Docs: []int{3, 1}, Scores: []float64{9.5, 8}, DocsScored: 7}).AppendJSON(nil)
	ok := "HTTP/1.1 200 OK\r\n"
	for _, seed := range []struct {
		reply  string
		split  uint16
		hangup bool
	}{
		{ok + "Content-Length: " + strconv.Itoa(len(page)) + "\r\n\r\n" + string(page), 0, false},
		{ok + "Content-Length: " + strconv.Itoa(len(page)) + "\r\n\r\n" + string(page), 21, true},
		{ok + "Content-Length: " + strconv.Itoa(len(page)) + "\r\n\r\n" + string(page[:len(page)/2]), 9, true},
		{ok + "Content-Length: " + strconv.Itoa(len(page)) + "\r\n\r\n" + string(page[:len(page)/2]), 9, false},
		{ok + "Transfer-Encoding: chunked\r\n\r\n5\r\n{\"doc\r\n3\r\ns\":\r\n0\r\n\r\n", 40, false},
		{ok + "Transfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\n", 0, false},
		{ok + "Transfer-Encoding: chunked\r\n\r\n5\r\n{\"doc", 0, true},
		{ok + "Connection: close\r\n\r\n" + string(page), 30, true},
		{ok + "Connection: close\r\n\r\n" + string(page), 30, false},
		{"HTTP/1.0 200 OK\r\n\r\n" + string(page), 5, true},
		{"HTTP/1.1 100 Continue\r\n\r\n" + ok + "Content-Length: 2\r\n\r\n{}", 25, false},
		{"HTTP/1.1 204 No Content\r\n\r\n", 0, false},
		{"HTTP/1.1 304 Not Modified\r\nContent-Length: 10\r\n\r\n", 0, false},
		{ok + "Content-Length: 2\r\n\r\n{}" + ok + "Content-Length: 5\r\n\r\nstale", 38, false},
		{ok + "Content-Length: -1\r\n\r\n", 0, false},
		{ok + "Content-Length: 2\r\nContent-Length: 3\r\n\r\n{}", 0, false},
		{ok + "Content-Length: 99999999999999999999\r\n\r\n", 0, false},
		{ok + "X-Pad: " + strings.Repeat("a", 8<<10) + "\r\n\r\n", 4096, false},
		{ok + " folded: line\r\n\r\n", 0, false},
		{"HTTP/1.1 200\r\n\r\n", 0, false},
		{"HTTP/9.9 999 \x00\r\n\r\n", 0, true},
		{"", 0, true},
		{"", 0, false},
		{"\r\n\r\n", 0, false},
		{"<html>502 bad gateway</html>", 0, true},
		{`{"docs`, 0, true},
		{garble(ok + "Content-Length: 2\r\n\r\n{}"), 3, false},
		{ok + "Content-Length: 40\r\n\r\n" + `{"docs":[3,x],"score_bits":[1,2],"docs_scored":4}`, 0, false},
	} {
		f.Add([]byte(seed.reply), seed.split, seed.hangup)
	}

	var (
		mu     sync.Mutex
		reply  []byte
		split  int
		hangup bool
	)
	fuzzed := rawWorker(f, func(c net.Conn, br *bufio.Reader) {
		for {
			if _, err := http.ReadRequest(br); err != nil {
				return
			}
			mu.Lock()
			first, rest, bye := reply[:split], reply[split:], hangup
			mu.Unlock()
			if _, err := c.Write(first); err != nil {
				return
			}
			if _, err := c.Write(rest); err != nil || bye {
				return
			}
		}
	})
	behaved := httptest.NewServer(okWorker(page))
	f.Cleanup(behaved.Close)

	f.Fuzz(func(t *testing.T, data []byte, at uint16, bye bool) {
		mu.Lock()
		reply, split, hangup = data, int(at)%(len(data)+1), bye
		mu.Unlock()
		tr := &HTTPTransport{}
		defer tr.CloseIdleConnections()
		const budget = 50 * time.Millisecond
		for i := 0; i < 2; i++ {
			start := time.Now()
			_, body, err := tr.Do(context.Background(), http.MethodGet, fuzzed, "/search?q=x", nil, start.Add(budget), nil)
			if elapsed := time.Since(start); elapsed > budget+time.Second {
				t.Fatalf("exchange %d returned after %v on a budget of %v", i, elapsed, budget)
			}
			if err == nil && len(body) > maxBody {
				t.Fatalf("exchange %d returned %d bytes", i, len(body))
			}
		}
		status, body, err := tr.Do(context.Background(), http.MethodGet, behaved.URL, "/search?q=x", nil, time.Now().Add(5*time.Second), nil)
		if err != nil || status != http.StatusOK || !bytes.Equal(body, page) {
			t.Fatalf("well-behaved worker afterwards: status %d, body %q, err %v", status, body, err)
		}
	})
}
