package server

import (
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"unsafe"

	"facile"
)

// BlockRequest is the wire form of one block query: the block of a
// /v1/analyze request and each item of a /v1/predict/batch request. Exactly
// one of Code (hex) and CodeB64 (standard base64) must carry the block bytes.
type BlockRequest struct {
	// Code is the basic block as a hex string, e.g. "4801d8480fafc3".
	Code string `json:"code,omitempty"`
	// CodeB64 is the basic block as standard base64, for clients that
	// already hold raw bytes.
	CodeB64 string `json:"code_b64,omitempty"`
	// Arch is the target microarchitecture name (see GET /v1/archs).
	Arch string `json:"arch"`
	// Mode selects the throughput notion: "loop" (TPL, default) or
	// "unroll" (TPU). The paper aliases "tpl" and "tpu" are accepted.
	Mode string `json:"mode,omitempty"`
}

// BatchRequest is the wire form of POST /v1/predict/batch.
type BatchRequest struct {
	Requests []BlockRequest `json:"requests"`
	// Concurrency bounds how many blocks of this batch are computed at
	// once. Zero (or anything above the engine's worker-pool size) selects
	// the engine's pool size.
	Concurrency int `json:"concurrency,omitempty"`
}

// AnalyzeRequest is the wire form of POST /v1/analyze: a block query plus
// the detail level of the analysis to materialize.
type AnalyzeRequest struct {
	BlockRequest
	// Detail selects how much of the analysis to return: "prediction",
	// "speedups", or "full" (the default).
	Detail string `json:"detail,omitempty"`
}

// parseDetail maps the wire detail vocabulary onto a facile.Detail. The
// empty string defaults to "full": /v1/analyze exists to serve the whole
// analysis; narrower callers opt down.
func parseDetail(s string) (facile.Detail, error) {
	if s == "" {
		return facile.DetailFull, nil
	}
	d, err := facile.ParseDetail(s)
	if err != nil {
		return 0, badRequest("%v", err)
	}
	return d, nil
}

// BatchResult is one entry of a BatchResponse: a prediction or a
// per-request error. Exactly one field is set. Prediction points into the
// engine's shared, read-only Analysis.
type BatchResult struct {
	Prediction *facile.Prediction `json:"prediction,omitempty"`
	Error      string             `json:"error,omitempty"`
}

// BatchResponse is the wire form of a /v1/predict/batch response; Results[i]
// answers Requests[i].
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// ArchsResponse is the wire form of a GET /v1/archs response.
type ArchsResponse struct {
	Archs []facile.ArchInfo `json:"archs"`
}

// RegisterArchRequest is the wire form of POST /v1/archs. Exactly one of
// the two shapes must be used: a full (or base+overlay) spec document in
// Spec, or the compact variant form Name+Base+Overlay.
type RegisterArchRequest struct {
	// Spec is a complete microarchitecture spec document (it may itself
	// carry a "base" field for the overlay form).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Name+Base+Overlay register a variant: Base is an already registered
	// arch, Overlay a JSON object with just the overridden spec fields.
	Name    string          `json:"name,omitempty"`
	Base    string          `json:"base,omitempty"`
	Overlay json.RawMessage `json:"overlay,omitempty"`
}

// RegisterArchResponse is the wire form of a successful POST /v1/archs.
type RegisterArchResponse struct {
	Arch facile.ArchInfo `json:"arch"`
}

// SweepRequest is the wire form of POST /v1/sweep: a design-space grid
// (see internal/sweep.Grid) plus the workload blocks to rank its points on.
type SweepRequest struct {
	// Grid is the design-space grid document: {"base": ..., "axes": [...]}.
	Grid json.RawMessage `json:"grid"`
	// Blocks is the workload: hex-encoded basic blocks.
	Blocks []string `json:"blocks"`
	// Mode overrides the grid's throughput notion ("loop"/"unroll").
	Mode string `json:"mode,omitempty"`
	// Workers bounds how many of the sweep's analyses run at once. Zero
	// selects the server default; the result does not depend on it.
	Workers int `json:"workers,omitempty"`
	// Top truncates the ranked frontier in the response (0 returns all
	// rows).
	Top int `json:"top,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// apiError carries an HTTP status alongside a client-facing message.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: 400, msg: fmt.Sprintf(format, args...)}
}

// parseMode maps the wire vocabulary onto facile.Mode via facile.ParseMode.
// The empty string defaults to Loop (TPL), matching the paper's headline
// metric.
func parseMode(s string) (facile.Mode, error) {
	if s == "" {
		return facile.Loop, nil
	}
	m, err := facile.ParseMode(s)
	if err != nil {
		return 0, badRequest("invalid mode %q (want \"loop\"/\"tpl\" or \"unroll\"/\"tpu\")", s)
	}
	return m, nil
}

// decodeBlock decodes a BlockRequest's wire fields into the engine-level
// request (with the zero, cheapest Detail; callers raise it as their
// endpoint requires), appending hex-decoded block bytes to slab (the batch
// path's pooled carving buffer; the returned slab must replace the
// caller's; a nil slab decodes into a fresh allocation). Its failures are
// 400s naming the wire field. The block itself is the engine's to judge:
// Engine.Analyze and the batch kernel reject an empty or oversized block
// and an arch they do not serve, in their own ErrBadRequest words. A
// request without block bytes is an empty block.
func (s *Server) decodeBlock(req *BlockRequest, slab []byte) (facile.Request, []byte, error) {
	var out facile.Request
	var code []byte
	switch {
	case req.Code != "" && req.CodeB64 != "":
		return out, slab, badRequest("set exactly one of \"code\" (hex) and \"code_b64\" (base64), not both")
	case req.Code != "":
		lo := len(slab)
		b, err := appendHex(slab, req.Code)
		slab = b
		if err != nil {
			return out, slab, badRequest("invalid hex in \"code\": %v", err)
		}
		code = slab[lo:len(slab):len(slab)]
	case req.CodeB64 != "":
		b, err := base64.StdEncoding.DecodeString(req.CodeB64)
		if err != nil {
			return out, slab, badRequest("invalid base64 in \"code_b64\": %v", err)
		}
		code = b
	}
	if req.Arch == "" {
		return out, slab, badRequest("missing \"arch\" (one of %s)", strings.Join(s.engine.Archs(), ", "))
	}
	mode, err := parseMode(req.Mode)
	if err != nil {
		return out, slab, err
	}
	return facile.Request{Code: code, Arch: req.Arch, Mode: mode}, slab, nil
}

// appendHex appends the hex decoding of s to dst, reading s in place.
func appendHex(dst []byte, s string) ([]byte, error) {
	return hex.AppendDecode(dst, unsafe.Slice(unsafe.StringData(s), len(s)))
}

// readJSON decodes the request body into v, rejecting unknown fields and
// trailing garbage so client typos fail loudly instead of being ignored.
// MaxBytesReader truncation passes through typed, for the 413 mapping.
func readJSON(body *json.Decoder, v any) error {
	body.DisallowUnknownFields()
	if err := body.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return err
		}
		return badRequest("invalid request body: %v", err)
	}
	if body.More() {
		return badRequest("invalid request body: trailing data after JSON value")
	}
	return nil
}
