package server

import (
	"io"
	"sync"
	"unsafe"

	"facile"
)

// batchScratch is the pooled per-call state of /v1/predict/batch: the decoded
// wire request (whose Requests backing array the JSON decoder reuses), the
// result slab, the compaction index, and one slab that every hex-decoded
// block of the batch is carved from. A warm batch request allocates nothing
// per item on the wire path; the response is encoded before the scratch is
// released, because it aliases all of it.
//
// Reusing the code slab across calls is safe because the engine never
// retains request bytes: cache entries copy the code into their durable key
// and build their blocks from that copy.
type batchScratch struct {
	wire    BatchRequest
	results []BatchResult
	idx     []int
	compact []facile.Request
	code    []byte
	// body holds the raw request body for the duration of the call: the
	// fast parser's wire strings are zero-copy views into it.
	body []byte
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// release zeroes the per-call state (stale wire fields must not leak into the
// next decode, and stale results must not pin engine memory in the pool)
// and returns the scratch to the pool.
func (sc *batchScratch) release() {
	reqs := sc.wire.Requests
	for i := range reqs {
		reqs[i] = BlockRequest{}
	}
	sc.wire = BatchRequest{Requests: reqs[:0]}
	clear(sc.results)
	sc.results = sc.results[:0]
	sc.idx = sc.idx[:0]
	clear(sc.compact)
	sc.compact = sc.compact[:0]
	sc.code = sc.code[:0]
	// Bodies can be as large as the configured body limit; don't pin an
	// outsized buffer in the pool for the rest of the process.
	if cap(sc.body) > maxRetainedEncodeBuf {
		sc.body = nil
	}
	sc.body = sc.body[:0]
	batchScratchPool.Put(sc)
}

// readBody reads r to EOF into the scratch's pooled body buffer.
func (sc *batchScratch) readBody(r io.Reader) ([]byte, error) {
	buf := sc.body[:0]
	if cap(buf) == 0 {
		buf = make([]byte, 0, 4<<10)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		sc.body = buf
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// resetWire zeroes the full capacity of the wire request (the failed fast
// parse may have written elements past the slice length) so the generic
// decoder's element reuse cannot surface stale fields.
func (sc *batchScratch) resetWire() {
	reqs := sc.wire.Requests[:cap(sc.wire.Requests)]
	for i := range reqs {
		reqs[i] = BlockRequest{}
	}
	sc.wire = BatchRequest{Requests: reqs[:0]}
}

// resultSlab returns a zeroed result slice of length n backed by the scratch.
func (sc *batchScratch) resultSlab(n int) []BatchResult {
	if cap(sc.results) < n {
		sc.results = make([]BatchResult, n)
	} else {
		sc.results = sc.results[:n]
	}
	return sc.results
}

// codeSlab returns the empty code slab with at least need bytes of capacity.
// Callers size need to the whole batch up front, so carving never
// reallocates: every decoded block aliases this one backing array until the
// scratch is released.
func (sc *batchScratch) codeSlab(need int) []byte {
	if cap(sc.code) < need {
		sc.code = make([]byte, 0, need)
	}
	sc.code = sc.code[:0]
	return sc.code
}

// parseBatchRequest is a zero-copy parser for the canonical batch request
// shape: {"requests": [{"code"/"code_b64"/"arch"/"mode": "..."}, ...],
// "concurrency": n}. It accepts a strict subset of what the generic decoder
// accepts — printable-ASCII strings without escapes, plain integers, the
// known keys only — and parses to the identical result for everything it
// accepts; the wire strings alias the body buffer instead of being copied.
// Anything outside the subset (escapes, unknown fields, a repeated
// "requests" key, malformed JSON, non-ASCII) returns false and the caller
// re-parses with the generic decoder, which owns all error-message behavior.
func parseBatchRequest(body []byte, dst *BatchRequest) bool {
	p := fastParser{b: body}
	reqs := dst.Requests[:0]
	dst.Concurrency = 0
	seenRequests := false
	p.ws()
	if !p.eat('{') {
		return false
	}
	p.ws()
	if !p.eat('}') {
		for {
			p.ws()
			key, ok := p.str()
			if !ok {
				return false
			}
			p.ws()
			if !p.eat(':') {
				return false
			}
			p.ws()
			switch key {
			case "requests":
				// encoding/json decodes a repeated array into the elements
				// the first one left behind, merging them field by field;
				// that merge is the generic decoder's to do.
				if seenRequests {
					return false
				}
				seenRequests = true
				if reqs, ok = p.blockRequests(reqs); !ok {
					return false
				}
			case "concurrency":
				if dst.Concurrency, ok = p.integer(); !ok {
					return false
				}
			default:
				return false // unknown field: DisallowUnknownFields rejects it
			}
			p.ws()
			if p.eat(',') {
				continue
			}
			if p.eat('}') {
				break
			}
			return false
		}
	}
	p.ws()
	if p.i != len(p.b) {
		return false // trailing data: the strict path's error
	}
	dst.Requests = reqs
	return true
}

type fastParser struct {
	b []byte
	i int
}

func (p *fastParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *fastParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str parses a JSON string restricted to printable ASCII without escapes —
// the only strings whose decoded value equals their raw bytes — returning a
// zero-copy view of the body buffer.
func (p *fastParser) str() (string, bool) {
	if !p.eat('"') {
		return "", false
	}
	lo := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			s := p.b[lo:p.i]
			p.i++
			if len(s) == 0 {
				return "", true
			}
			return unsafe.String(&s[0], len(s)), true
		}
		if c == '\\' || c < 0x20 || c > 0x7e {
			return "", false
		}
		p.i++
	}
	return "", false
}

// integer parses a plain JSON integer (no fraction, no exponent, no leading
// zeros — shapes encoding/json would decode into an int identically).
func (p *fastParser) integer() (int, bool) {
	neg := p.eat('-')
	lo := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	d := p.i - lo
	if d == 0 || d > 18 || (d > 1 && p.b[lo] == '0') {
		return 0, false
	}
	n := 0
	for _, c := range p.b[lo:p.i] {
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

func (p *fastParser) blockRequests(reqs []BlockRequest) ([]BlockRequest, bool) {
	if !p.eat('[') {
		return reqs, false
	}
	p.ws()
	if p.eat(']') {
		return reqs, true
	}
	for {
		var br BlockRequest
		if !p.blockRequest(&br) {
			return reqs, false
		}
		reqs = append(reqs, br)
		p.ws()
		if p.eat(',') {
			p.ws()
			continue
		}
		if p.eat(']') {
			return reqs, true
		}
		return reqs, false
	}
}

func (p *fastParser) blockRequest(br *BlockRequest) bool {
	if !p.eat('{') {
		return false
	}
	p.ws()
	if p.eat('}') {
		return true
	}
	for {
		key, ok := p.str()
		if !ok {
			return false
		}
		p.ws()
		if !p.eat(':') {
			return false
		}
		p.ws()
		val, ok := p.str()
		if !ok {
			return false
		}
		switch key {
		case "code":
			br.Code = val
		case "code_b64":
			br.CodeB64 = val
		case "arch":
			br.Arch = val
		case "mode":
			br.Mode = val
		default:
			return false
		}
		p.ws()
		if p.eat(',') {
			p.ws()
			continue
		}
		if p.eat('}') {
			return true
		}
		return false
	}
}
