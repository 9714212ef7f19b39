package server

import (
	"context"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
)

// Admission control sits in front of the analysis endpoints (and therefore in
// front of every engine call they make): at most maxInFlight requests are
// processed at once, at most maxQueue more wait for a slot, and everything
// beyond that is shed immediately with 429 and a Retry-After hint. Shedding
// is the load-survival strategy — a saturated server answers the requests it
// has admitted at its normal latency and rejects the rest in microseconds,
// instead of queueing unboundedly until every client times out.
//
// An optional per-client concurrency cap (keyed by X-API-Key, falling back to
// the remote address) bounds how much of the server one client can occupy, so
// a single bulk consumer cannot starve interactive callers.

// shedError is a load-shedding rejection: mapped to 429 Too Many Requests
// with a Retry-After header by the route middleware.
type shedError struct {
	reason     string // "queue_full" or "client_cap"
	retryAfter int    // seconds, for the Retry-After header
}

func (e *shedError) Error() string {
	if e.reason == "client_cap" {
		return "client concurrency limit reached; retry after backoff"
	}
	return "server is saturated; retry after backoff"
}

// admission is the server's load-shedding gate. The zero value is not usable;
// construct with newAdmission.
type admission struct {
	slots      chan struct{} // capacity = maxInFlight; a held slot = an admitted request
	maxQueue   int64
	retryAfter int
	clientCap  int

	queued atomic.Int64 // requests currently waiting for a slot

	mu      sync.Mutex
	clients map[string]*int // in-flight count per client key, while > 0

	admitted      atomic.Uint64
	shedQueueFull atomic.Uint64
	shedClientCap atomic.Uint64
}

// newAdmission builds a gate admitting maxInFlight concurrent requests with a
// wait queue of maxQueue. clientCap <= 0 disables the per-client cap.
func newAdmission(maxInFlight, maxQueue, clientCap, retryAfter int) *admission {
	if retryAfter < 1 {
		retryAfter = 1
	}
	return &admission{
		slots:      make(chan struct{}, maxInFlight),
		maxQueue:   int64(maxQueue),
		retryAfter: retryAfter,
		clientCap:  clientCap,
		clients:    make(map[string]*int),
	}
}

// acquire admits one request for the given client key, blocking in the
// bounded queue when all slots are busy. It returns a release func on
// admission, and a shedError (or ctx's error) otherwise. Shedding never
// blocks: a rejected request costs microseconds.
func (a *admission) acquire(ctx context.Context, client string) (func(), error) {
	if !a.clientEnter(client) {
		a.shedClientCap.Add(1)
		return nil, &shedError{reason: "client_cap", retryAfter: a.retryAfter}
	}
	select {
	case a.slots <- struct{}{}: // fast path: a slot is free
	default:
		if a.queued.Add(1) > a.maxQueue {
			a.queued.Add(-1)
			a.clientExit(client)
			a.shedQueueFull.Add(1)
			return nil, &shedError{reason: "queue_full", retryAfter: a.retryAfter}
		}
		select {
		case a.slots <- struct{}{}:
			a.queued.Add(-1)
		case <-ctx.Done():
			a.queued.Add(-1)
			a.clientExit(client)
			return nil, ctx.Err()
		}
	}
	a.admitted.Add(1)
	released := false
	return func() {
		if released {
			return
		}
		released = true
		<-a.slots
		a.clientExit(client)
	}, nil
}

// clientEnter counts one in-flight request against client's cap; it reports
// false (without counting) when the client is at its limit.
func (a *admission) clientEnter(client string) bool {
	if a.clientCap <= 0 {
		return true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.clients[client]
	if n == nil {
		n = new(int)
		a.clients[client] = n
	}
	if *n >= a.clientCap {
		return false
	}
	*n++
	return true
}

func (a *admission) clientExit(client string) {
	if a.clientCap <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := a.clients[client]; n != nil {
		*n--
		if *n <= 0 {
			delete(a.clients, client) // the map tracks only active clients
		}
	}
}

// inFlight returns the number of currently admitted requests.
func (a *admission) inFlight() int { return len(a.slots) }

// queueDepth returns the number of requests waiting for a slot.
func (a *admission) queueDepth() int64 { return a.queued.Load() }

// clientKey identifies the requester for per-client caps: the X-API-Key
// header when the client presents one, else the remote host (without the
// ephemeral port, so one client's connections pool together).
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return "key:" + k
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return "addr:" + host
	}
	return "addr:" + r.RemoteAddr
}

// admitted wraps an analysis handler with the admission gate; servers
// without one (Config.MaxInFlight <= 0) pass through untouched.
func (s *Server) admitted(h handler) handler {
	if s.admit == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) (any, error) {
		release, err := s.admit.acquire(r.Context(), clientKey(r))
		if err != nil {
			return nil, err
		}
		defer release()
		return h(w, r)
	}
}
