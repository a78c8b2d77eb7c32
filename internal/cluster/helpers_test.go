package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"green/internal/wire"
)

// memTransport serves coordinator requests in-process against
// registered handlers — the pluggable-transport seam exercised the way
// production uses HTTP, without sockets.
type memTransport struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
}

func newMemTransport() *memTransport {
	return &memTransport{handlers: make(map[string]http.Handler)}
}

func (m *memTransport) register(base string, h http.Handler) {
	m.mu.Lock()
	m.handlers[base] = h
	m.mu.Unlock()
}

func (m *memTransport) Do(ctx context.Context, method, base, path string, reqBody []byte, deadline time.Time, buf []byte) (int, []byte, error) {
	m.mu.Lock()
	h := m.handlers[base]
	m.mu.Unlock()
	if h == nil {
		return 0, buf, fmt.Errorf("memtransport: no handler for %s", base)
	}
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	var body io.Reader
	if reqBody != nil {
		body = bytes.NewReader(reqBody)
	}
	req := httptest.NewRequest(method, base+path, body).WithContext(ctx)
	type result struct {
		code int
		body []byte
	}
	done := make(chan result, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		done <- result{rec.Code, rec.Body.Bytes()}
	}()
	select {
	case r := <-done:
		return r.code, append(buf, r.body...), nil
	case <-ctx.Done():
		return 0, buf, ctx.Err()
	}
}

// workerJSON renders a canned worker /search body in the worker's wire
// shape.
func workerJSON(t *testing.T, docs []int, scores []float64, degraded bool) []byte {
	t.Helper()
	rep := wire.SearchReply{Query: "q", Docs: docs, Scores: scores, DocsScored: 7, Approximated: true, Degraded: degraded}
	return rep.AppendJSON(nil)
}

// okWorker answers every /search with a fixed partial page.
func okWorker(body []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	})
}

// failWorker answers every request with the given status.
func failWorker(code int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "injected failure", code)
	})
}

// slowWorker delays before delegating, honoring cancellation.
func slowWorker(d time.Duration, inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-r.Context().Done():
			return
		case <-t.C:
		}
		inner.ServeHTTP(w, r)
	})
}

// countingWorker wraps a handler counting requests served.
type countingWorker struct {
	inner http.Handler
	calls int64
	mu    sync.Mutex
}

func (c *countingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	c.inner.ServeHTTP(w, r)
}

func (c *countingWorker) count() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}
