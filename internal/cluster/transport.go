// Package cluster is the fault-tolerant sharded serving layer: a
// coordinator scatters each query across shard workers (internal/serve
// instances holding disjoint corpus partitions), gathers the partial
// result pages, and merges them into the unsharded page — degrading
// instead of dying when replicas misbehave. Robustness mechanics:
// per-shard deadline budgets carved from the request deadline, bounded
// retries with jittered exponential backoff that prefer an alternate
// replica, an optional hedged second request, a per-replica circuit
// breaker (internal/core's state machine), and a quorum policy that
// serves partial coverage as a degraded 200 and refuses below-quorum
// requests with 503 + Retry-After.
//
// The coordinator is also the fleet control plane of the paper's §3.4
// combination search: it periodically pulls each shard's monitored QoS
// loss and calibrated model, corrects the models by observed loss, and
// decomposes the application SLA into per-shard approximation budgets
// with core.CombineSearchOpt, pushing the chosen levels back to every
// replica.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
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

// HTTPTransport is the production Transport over net/http.
type HTTPTransport struct {
	// Client is the underlying client; nil means http.DefaultClient.
	// Wrapping Client.Transport (e.g. with chaos.HTTPFaults) injects
	// faults below this layer.
	Client *http.Client

	// templates holds one prebuilt *http.Request per base URL, so an
	// exchange copies a parsed URL instead of concatenating and parsing
	// the same one again.
	templates sync.Map
}

// parseBase parses a replica's base URL, which must name a scheme and a
// host. New runs every replica through it, so the fleet a coordinator
// accepts is one HTTPTransport can reach.
func parseBase(base string) (*url.URL, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, err
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("cluster: replica URL %q needs a scheme and a host", base)
	}
	return u, nil
}

// template returns the prebuilt request for base, building it on first
// use.
func (t *HTTPTransport) template(base string) (*http.Request, error) {
	if v, ok := t.templates.Load(base); ok {
		return v.(*http.Request), nil
	}
	u, err := parseBase(base)
	if err != nil {
		return nil, err
	}
	v, _ := t.templates.LoadOrStore(base, &http.Request{
		URL: u, Host: u.Host, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	})
	return v.(*http.Request), nil
}

// Do implements Transport.
func (t *HTTPTransport) Do(ctx context.Context, method, base, path string, reqBody []byte, deadline time.Time, buf []byte) (int, []byte, error) {
	tmpl, err := t.template(base)
	if err != nil {
		return 0, buf, err
	}
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	// The request is the template with its own context, URL and header:
	// what http.NewRequestWithContext(base+path) would build, short of
	// the concatenation and the parse.
	target := *tmpl.URL
	path, target.RawQuery, _ = strings.Cut(path, "?")
	target.Path += path
	req := tmpl.WithContext(ctx)
	req.Method, req.URL, req.Header = method, &target, make(http.Header)
	if reqBody != nil {
		req.Body = io.NopCloser(bytes.NewReader(reqBody))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(reqBody)), nil }
		req.ContentLength = int64(len(reqBody))
		req.Header.Set("Content-Type", "application/json")
	}
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, buf, err
	}
	defer resp.Body.Close()
	buf, err = appendAll(buf, io.LimitReader(resp.Body, maxBody+1))
	if err != nil {
		return resp.StatusCode, buf, err
	}
	if len(buf) > maxBody {
		return resp.StatusCode, buf, errors.New("cluster: response body exceeds limit")
	}
	return resp.StatusCode, buf, nil
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
