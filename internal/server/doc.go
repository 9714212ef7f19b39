// Package server is the HTTP batch-serving subsystem over facile.Engine:
// the network surface that turns the library into the traffic-serving
// system of the ROADMAP, and the operational realization of the paper's §1
// motivation — a predictor fast enough to sit inside compiler and
// superoptimizer loops is equally fast enough to answer shared traffic as
// a service.
//
// The server exposes a small JSON API (documented in docs/API.md):
//
//	POST /v1/analyze         one block: the facile.Analysis, report text included
//	POST /v1/predict/batch   many blocks; bounded per-request concurrency
//	POST /v1/sweep           a design-space grid over a block workload
//	GET  /v1/archs           the served microarchitectures (paper Table 1)
//	POST /v1/archs           register a spec or variant without restart
//	GET  /healthz            liveness
//	GET  /metrics            Prometheus text: request counts, latency
//	                         histograms, admission, sweeps, engine cache
//
// The layer owns everything HTTP-shaped so the engine does not have to:
// decoding the wire (JSON, hex or base64 block bytes, a missing arch, the
// mode and detail strings), body, batch and sweep size limits, per-request
// deadline installation and propagation, admission control (429 load
// shedding), and graceful shutdown. What a block may be — non-empty, within
// EngineConfig.MaxCodeBytes, for an arch the engine serves — is the
// engine's to judge, and its ErrBadRequest text is the 400's. The
// single-block endpoint makes one Engine.Analyze call on the request's own
// goroutine, at the detail level the request names; the batch endpoint
// makes one Engine.AnalyzeEach call, each result written into its wire
// slot.
package server
