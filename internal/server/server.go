package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"facile"

	"facile/internal/metrics"
)

// Defaults for Config fields left zero.
const (
	DefaultRequestTimeout = 10 * time.Second
	DefaultMaxBatchItems  = 1024
	DefaultMaxBodyBytes   = 1 << 20
	DefaultMaxSweepPoints = 1024
)

// Config configures a Server. Engine is required; every other field has a
// sensible default.
type Config struct {
	// Engine answers all predictions and judges every block: its size
	// limit (EngineConfig.MaxCodeBytes) and the arches it serves. Required.
	Engine *facile.Engine
	// RequestTimeout bounds the server-side handling of one request; the
	// deadline is installed on the request context, so a request waiting
	// for an admission slot or a shared in-flight computation times out
	// instead of waiting forever.
	// Zero selects DefaultRequestTimeout; negative disables the limit.
	RequestTimeout time.Duration
	// MaxBatchItems bounds len(requests) of one /v1/predict/batch call and
	// the workload size of one /v1/sweep call.
	// Zero selects DefaultMaxBatchItems.
	MaxBatchItems int
	// MaxSweepPoints bounds how many design points one /v1/sweep grid may
	// enumerate. Zero selects DefaultMaxSweepPoints.
	MaxSweepPoints int
	// MaxBodyBytes bounds the request body size.
	// Zero selects DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxInFlight bounds how many analysis requests are processed at once;
	// beyond it requests wait in a bounded queue (MaxQueue) and overflow is
	// shed with 429 + Retry-After. Zero or negative disables admission
	// control (every request is processed).
	MaxInFlight int
	// MaxQueue bounds how many admitted-pending requests wait for a slot
	// when MaxInFlight is saturated. Zero selects MaxInFlight; negative
	// means no queue (immediate shed when saturated). Ignored without
	// MaxInFlight.
	MaxQueue int
	// ClientConcurrency caps one client's concurrent analysis requests
	// (keyed by X-API-Key, falling back to the remote host); requests over
	// the cap are shed with 429. Zero or negative disables the cap. Ignored
	// without MaxInFlight.
	ClientConcurrency int
	// RetryAfter is the backoff hint (whole seconds) sent in the
	// Retry-After header of shed responses. Zero selects 1 second.
	RetryAfter int
}

// DefaultMaxSnapshotBytes bounds the body of PUT /v1/cache/snapshot — cache
// snapshots are legitimately larger than JSON request bodies.
const DefaultMaxSnapshotBytes = 256 << 20

// Server is the HTTP prediction service over a facile.Engine. It implements
// http.Handler; construct with New, serve with net/http, and Close when
// done. See docs/API.md for the endpoint reference.
type Server struct {
	engine         *facile.Engine
	mux            *http.ServeMux
	admit          *admission // nil when admission control is disabled
	timeout        time.Duration
	maxBatchItems  int
	maxSweepPoints int
	maxBodyBytes   int64

	// sweepPoints/sweepAnalyses count the design points and variant-block
	// analyses served by completed /v1/sweep requests.
	sweepPoints   atomic.Uint64
	sweepAnalyses atomic.Uint64

	routes []*routeMetrics
	closed atomic.Bool
}

// routeMetrics accumulates per-endpoint request counts (by status code) and
// a latency histogram.
type routeMetrics struct {
	name    string
	byCode  sync.Map // int -> *atomic.Uint64
	latency *metrics.Histogram
}

func (m *routeMetrics) observe(code int, elapsed time.Duration) {
	c, ok := m.byCode.Load(code)
	if !ok {
		c, _ = m.byCode.LoadOrStore(code, new(atomic.Uint64))
	}
	c.(*atomic.Uint64).Add(1)
	m.latency.Observe(elapsed.Seconds())
}

// New constructs a Server over cfg.Engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	s := &Server{
		engine:         cfg.Engine,
		mux:            http.NewServeMux(),
		timeout:        cfg.RequestTimeout,
		maxBatchItems:  cfg.MaxBatchItems,
		maxSweepPoints: cfg.MaxSweepPoints,
		maxBodyBytes:   cfg.MaxBodyBytes,
	}
	if s.timeout == 0 {
		s.timeout = DefaultRequestTimeout
	}
	if s.maxBatchItems <= 0 {
		s.maxBatchItems = DefaultMaxBatchItems
	}
	if s.maxSweepPoints <= 0 {
		s.maxSweepPoints = DefaultMaxSweepPoints
	}
	if s.maxBodyBytes <= 0 {
		s.maxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxInFlight > 0 {
		maxQueue := cfg.MaxQueue
		if maxQueue == 0 {
			maxQueue = cfg.MaxInFlight
		}
		if maxQueue < 0 {
			maxQueue = 0
		}
		s.admit = newAdmission(cfg.MaxInFlight, maxQueue, cfg.ClientConcurrency, cfg.RetryAfter)
	}

	// The analysis endpoints go through the admission gate; the operational
	// endpoints (archs, health, metrics, snapshots) never shed — they must
	// stay observable exactly when the server is saturated.
	s.route("POST /v1/analyze", s.admitted(s.handleAnalyze))
	s.route("POST /v1/predict/batch", s.admitted(s.handlePredictBatch))
	s.route("POST /v1/sweep", s.admitted(s.handleSweep))
	s.route("GET /v1/archs", s.handleArchs)
	s.route("POST /v1/archs", s.handleRegisterArch)
	s.route("GET /v1/cache/snapshot", s.handleSnapshotGet)
	s.routeLimit("PUT /v1/cache/snapshot", s.handleSnapshotPut, DefaultMaxSnapshotBytes)
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /metrics", s.handleMetrics)
	return s, nil
}

// errShuttingDown answers single-block requests that arrive after Close;
// the HTTP layer maps it to 503.
var errShuttingDown = errors.New("server is shutting down")

// Close marks the server as shutting down: single-block analysis requests
// arriving afterwards fail with 503, while requests already computing
// finish. Close is idempotent; call it after the HTTP listener has drained
// (http.Server.Shutdown).
func (s *Server) Close() {
	s.closed.Store(true)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handler is an endpoint implementation: it returns the response value to
// encode (with 200) or an error the middleware maps to a status.
type handler func(w http.ResponseWriter, r *http.Request) (any, error)

// route registers pattern with the shared middleware: per-route metrics,
// body-size limiting, and deadline installation.
func (s *Server) route(pattern string, h handler) {
	s.routeLimit(pattern, h, 0)
}

// routeLimit is route with a per-route body limit overriding the server-wide
// one (0 keeps the default); the snapshot import uses it, since snapshots are
// legitimately larger than JSON request bodies.
func (s *Server) routeLimit(pattern string, h handler, bodyLimit int64) {
	rm := &routeMetrics{name: pattern, latency: metrics.NewHistogram(metrics.LatencyBounds())}
	s.routes = append(s.routes, rm)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if r.Body != nil {
			limit := s.maxBodyBytes
			if bodyLimit > 0 {
				limit = bodyLimit
			}
			r.Body = http.MaxBytesReader(w, r.Body, limit)
		}
		ctx := r.Context()
		if s.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		resp, err := h(w, r)
		code := http.StatusOK
		if err != nil {
			code = errorStatus(err)
			resp = ErrorResponse{Error: err.Error()}
			var shed *shedError
			if errors.As(err, &shed) {
				// The contract of a shed response: tell the client when to
				// come back instead of letting it hammer a saturated server.
				w.Header().Set("Retry-After", strconv.Itoa(shed.retryAfter))
			}
		}
		if resp != nil {
			writeJSON(w, code, resp)
		}
		rm.observe(code, time.Since(start))
	})
}

// errorStatus maps handler errors onto HTTP statuses.
func errorStatus(err error) int {
	var ae *apiError
	var shed *shedError
	switch {
	case errors.As(err, &shed):
		return http.StatusTooManyRequests
	case errors.As(err, &ae):
		return ae.status
	case errors.Is(err, errShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is never seen, but the metrics
		// line is, and 499 (nginx's convention) distinguishes abandonment
		// from server faults.
		return 499
	case errors.Is(err, facile.ErrBadRequest):
		// The engine's uniform Analyze-boundary vocabulary: anything it
		// rejects about the request (undecodable bytes, unsupported
		// instructions, unknown arch) is the client's 400, not a server
		// fault.
		return http.StatusBadRequest
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusInternalServerError
}

// writeJSON writes v as the indented response body. The hot response types
// go through the pooled append encoder (byte-identical output, no
// per-element allocations); everything else takes the generic reflective
// path.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if writeJSONFast(w, v) {
		return
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // nothing useful to do with a client write error
}

// analyze answers one validated single-block request with exactly one
// engine analysis on the handler goroutine; the engine drops a request
// whose context is done between its cache probe and the compute.
func (s *Server) analyze(ctx context.Context, req facile.Request) (*facile.Analysis, error) {
	if s.closed.Load() {
		return nil, errShuttingDown
	}
	return s.engine.Analyze(ctx, req)
}

// wrapBodyErr surfaces MaxBytesReader truncation as 413 instead of the
// generic 400 the JSON decoder failure would produce.
func wrapBodyErr(err error) error {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return &apiError{status: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
	}
	return err
}

// handleAnalyze serves the engine's Analysis as is: prediction, ordered
// bound breakdown, sorted counterfactual speedups, and the rendered report,
// at the requested detail level — one engine call, one cache entry
// resolution.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) (any, error) {
	var wire AnalyzeRequest
	if err := readJSON(json.NewDecoder(r.Body), &wire); err != nil {
		return nil, wrapBodyErr(err)
	}
	req, _, err := s.decodeBlock(&wire.BlockRequest, nil)
	if err != nil {
		return nil, err
	}
	if req.Detail, err = parseDetail(wire.Detail); err != nil {
		return nil, err
	}
	ana, err := s.analyze(r.Context(), req)
	if err != nil {
		return nil, err
	}
	return ana, nil
}

func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) (any, error) {
	sc := batchScratchPool.Get().(*batchScratch)
	defer sc.release()
	wire := &sc.wire
	// The body is read once into pooled scratch and parsed zero-copy: the
	// wire strings alias the body buffer (released with the scratch, after
	// the response is written). Anything the fast parser does not accept is
	// re-parsed by the generic decoder, which owns all error behavior.
	body, err := sc.readBody(r.Body)
	if err != nil {
		return nil, wrapBodyErr(err)
	}
	if !parseBatchRequest(body, wire) {
		sc.resetWire()
		if err := readJSON(json.NewDecoder(bytes.NewReader(body)), wire); err != nil {
			return nil, wrapBodyErr(err)
		}
	}
	if len(wire.Requests) == 0 {
		return nil, badRequest("empty \"requests\"")
	}
	if len(wire.Requests) > s.maxBatchItems {
		return nil, badRequest("batch has %d requests; the limit is %d", len(wire.Requests), s.maxBatchItems)
	}
	if wire.Concurrency < 0 {
		return nil, badRequest("negative \"concurrency\"")
	}
	// Wire failures are per-item, like the engine's: one bad block must
	// not fail its 1023 siblings. Decoded items are compacted and analyzed
	// with the request's concurrency bound, each result written into its
	// wire slot. Every hex-decoded block is carved from one slab pre-sized
	// for the whole batch, so carving never reallocates while earlier
	// blocks alias the buffer.
	results := sc.resultSlab(len(wire.Requests))
	need := 0
	for i := range wire.Requests {
		need += len(wire.Requests[i].Code) / 2
	}
	slab := sc.codeSlab(need)
	idx, compact := sc.idx[:0], sc.compact[:0]
	for i := range wire.Requests {
		req, rest, err := s.decodeBlock(&wire.Requests[i], slab)
		slab = rest
		if err != nil {
			results[i].Error = err.Error()
			continue
		}
		idx = append(idx, i)
		compact = append(compact, req)
	}
	sc.idx, sc.compact, sc.code = idx, compact, slab
	// The request context rides into the engine: a batch abandoned by its
	// client (or past its deadline) aborts its unstarted items between
	// cache probe and compute instead of burning the shared worker pool on
	// a response nobody reads. The whole call then fails with the context's
	// status, matching the historical wire behavior. Results point at the
	// engine's durable predictions (no request sets a Variant): repeated
	// blocks share a cached one, which the encoder renders once and copies
	// for its repeats. Workers write distinct slots.
	s.engine.AnalyzeEach(r.Context(), compact, wire.Concurrency, func(j int, a *facile.Analysis, err error) {
		if err != nil {
			results[idx[j]].Error = err.Error()
			return
		}
		results[idx[j]].Prediction = &a.Prediction
	})
	if err := r.Context().Err(); err != nil {
		return nil, err
	}
	// The response aliases the pooled scratch (results, decoded code), so it
	// is written here — before the deferred release recycles the scratch —
	// instead of being returned to the middleware.
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
	return nil, nil
}

func (s *Server) handleArchs(w http.ResponseWriter, r *http.Request) (any, error) {
	// The served set comes from the engine at request time, so arches
	// registered after startup (POST /v1/archs) are listed immediately.
	reg := s.engine.Registry()
	var resp ArchsResponse
	for _, name := range s.engine.Archs() {
		info, err := reg.Info(name)
		if err != nil {
			continue // raced with nothing: registered names never disappear
		}
		resp.Archs = append(resp.Archs, info)
	}
	return resp, nil
}

// handleRegisterArch opens a new microarchitecture scenario over HTTP: a
// full spec document, a spec with a "base" (overlay form), or the compact
// {name, base, overlay} variant form. The arch is served without restart:
// it is immediately valid for /v1/analyze, /v1/predict/batch and /v1/sweep,
// and listed by GET /v1/archs.
func (s *Server) handleRegisterArch(w http.ResponseWriter, r *http.Request) (any, error) {
	var wire RegisterArchRequest
	if err := readJSON(json.NewDecoder(r.Body), &wire); err != nil {
		return nil, wrapBodyErr(err)
	}
	if s.engine.Restricted() {
		return nil, &apiError{status: http.StatusForbidden,
			msg: "this server serves a fixed microarchitecture set (started with -archs); restart without it to register arches"}
	}
	reg := s.engine.Registry()
	var info facile.ArchInfo
	var err error
	switch {
	case len(wire.Spec) > 0 && (wire.Name != "" || wire.Base != "" || len(wire.Overlay) > 0):
		return nil, badRequest("set either \"spec\" or \"name\"/\"base\"/\"overlay\", not both")
	case len(wire.Spec) > 0:
		info, err = reg.LoadSpec(wire.Spec)
	case wire.Base != "":
		if wire.Name == "" {
			return nil, badRequest("missing \"name\" for the variant of %q", wire.Base)
		}
		info, err = reg.Derive(wire.Name, wire.Base, wire.Overlay)
	default:
		return nil, badRequest("missing spec: set \"spec\" (full document) or \"name\"+\"base\" (+\"overlay\")")
	}
	if err != nil {
		if errors.Is(err, facile.ErrDuplicateArch) || errors.Is(err, facile.ErrArchRegistryFull) {
			return nil, &apiError{status: http.StatusConflict, msg: err.Error()}
		}
		return nil, badRequest("%v", err)
	}
	return RegisterArchResponse{Arch: info}, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) (any, error) {
	return map[string]string{"status": "ok"}, nil
}
