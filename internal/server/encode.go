package server

import (
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"facile"
)

// jenc is a pooled append-based JSON encoder for the hot response types. Its
// output is byte-identical to the generic path (json.Encoder with a two-space
// indent): same indentation, same shortest-form float formatting with
// encoding/json's exponent thresholds, same HTML-escaped string encoding,
// same omitempty semantics. Hand-rolling the hot wire types is what makes the
// batch response path allocation-free per block: every value is appended
// straight into one pooled buffer instead of passing through reflection and
// intermediate encoder states.
type jenc struct {
	buf []byte
	// memo caches the encoded byte range of each distinct *Prediction within
	// one batch response. Batch results that share a prediction (repeated
	// blocks resolve to one cached analysis) are rendered once and then
	// copied — all results sit at the same indent depth, so the bytes are
	// position-independent. Cleared after each batch encode, so a pooled
	// encoder pins no engine memory.
	memo map[*facile.Prediction][2]int
	// bad is set when a value encoding/json would refuse (a non-finite
	// float, an invalid mode) is encountered; the caller then falls back to the generic
	// encoder so the wire behavior (an empty body) stays identical.
	bad bool
}

var jencPool = sync.Pool{New: func() any { return &jenc{buf: make([]byte, 0, 4<<10)} }}

// maxRetainedEncodeBuf bounds the buffer capacity a pooled encoder retains;
// encoders grown beyond it (a maximum-size batch response) are dropped
// rather than pinned in the pool for the rest of the process.
const maxRetainedEncodeBuf = 1 << 20

// writeJSONFast writes v through the pooled encoder when it is one of the
// hand-rolled hot response types, reporting whether it did. A false return
// means nothing was written and the caller must use the generic encoder.
func writeJSONFast(w io.Writer, v any) bool {
	e := jencPool.Get().(*jenc)
	e.buf, e.bad = e.buf[:0], false
	ok := e.encode(v)
	if ok {
		w.Write(e.buf) // nothing useful to do with a client write error
	}
	if cap(e.buf) <= maxRetainedEncodeBuf {
		jencPool.Put(e)
	}
	return ok
}

// encode appends v's indented document (with the trailing newline
// json.Encoder emits) if v is one of the hand-rolled types.
func (e *jenc) encode(v any) bool {
	switch t := v.(type) {
	case BatchResponse:
		e.batchResponse(&t, 0)
	case *facile.Analysis:
		e.analysis(t, 0)
	default:
		return false
	}
	e.buf = append(e.buf, '\n')
	return !e.bad
}

func (e *jenc) nl(depth int) {
	e.buf = append(e.buf, '\n')
	for i := 0; i < depth; i++ {
		e.buf = append(e.buf, ' ', ' ')
	}
}

// field opens the next key of an object body: element separator, newline,
// indentation, quoted key, colon. Keys are trusted literals that need no
// escaping.
func (e *jenc) field(first *bool, depth int, key string) {
	if !*first {
		e.buf = append(e.buf, ',')
	}
	*first = false
	e.nl(depth)
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, '"', ':', ' ')
}

func (e *jenc) lit(s string) { e.buf = append(e.buf, s...) }

func (e *jenc) str(s string) { e.buf = appendJSONString(e.buf, s) }

func (e *jenc) num(i int) { e.buf = strconv.AppendInt(e.buf, int64(i), 10) }

func (e *jenc) boolean(b bool) {
	if b {
		e.lit("true")
	} else {
		e.lit("false")
	}
}

// flt appends f the way encoding/json does: shortest representation, fixed
// notation unless the magnitude crosses the 1e-6/1e21 thresholds, and the
// exponent's leading zero stripped ("e-09" -> "e-9").
func (e *jenc) flt(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		// encoding/json fails the whole document on a non-finite float and
		// writes nothing; flag the document so the caller falls back.
		e.bad = true
		e.lit("0")
		return
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.buf); n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
}

func (e *jenc) strs(v []string, depth int) {
	if v == nil {
		e.lit("null")
		return
	}
	if len(v) == 0 {
		e.lit("[]")
		return
	}
	e.buf = append(e.buf, '[')
	for i, s := range v {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.nl(depth + 1)
		e.str(s)
	}
	e.nl(depth)
	e.buf = append(e.buf, ']')
}

func (e *jenc) ints(v []int, depth int) {
	if v == nil {
		e.lit("null")
		return
	}
	if len(v) == 0 {
		e.lit("[]")
		return
	}
	e.buf = append(e.buf, '[')
	for i, x := range v {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.nl(depth + 1)
		e.num(x)
	}
	e.nl(depth)
	e.buf = append(e.buf, ']')
}

// mode renders a facile.Mode through its MarshalText vocabulary. An invalid
// mode makes MarshalText, and so encoding/json, fail the document.
func (e *jenc) mode(m facile.Mode) {
	switch m {
	case facile.Loop:
		e.lit(`"loop"`)
	case facile.Unroll:
		e.lit(`"unroll"`)
	default:
		e.bad = true
	}
}

func (e *jenc) prediction(p *facile.Prediction, depth int) {
	e.buf = append(e.buf, '{')
	first := true
	e.field(&first, depth+1, "cycles_per_iteration")
	e.flt(p.CyclesPerIteration)
	e.field(&first, depth+1, "arch")
	e.str(p.Arch)
	e.field(&first, depth+1, "mode")
	e.mode(p.Mode)
	e.field(&first, depth+1, "bottlenecks")
	e.strs(p.Bottlenecks, depth+1)
	if p.FrontEndSource != "" {
		e.field(&first, depth+1, "front_end_source")
		e.str(p.FrontEndSource)
	}
	if len(p.CriticalChain) > 0 {
		e.field(&first, depth+1, "critical_chain")
		e.ints(p.CriticalChain, depth+1)
	}
	if p.ContendedPorts != "" {
		e.field(&first, depth+1, "contended_ports")
		e.str(p.ContendedPorts)
	}
	if len(p.ContendedInstrs) > 0 {
		e.field(&first, depth+1, "contended_instrs")
		e.ints(p.ContendedInstrs, depth+1)
	}
	e.field(&first, depth+1, "instructions")
	e.strs(p.Instructions, depth+1)
	e.nl(depth)
	e.buf = append(e.buf, '}')
}

func (e *jenc) batchResponse(r *BatchResponse, depth int) {
	if e.memo == nil {
		e.memo = make(map[*facile.Prediction][2]int)
	}
	e.buf = append(e.buf, '{')
	first := true
	e.field(&first, depth+1, "results")
	switch {
	case r.Results == nil:
		e.lit("null")
	case len(r.Results) == 0:
		e.lit("[]")
	default:
		e.buf = append(e.buf, '[')
		for i := range r.Results {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.nl(depth + 2)
			e.batchResult(&r.Results[i], depth+2)
		}
		e.nl(depth + 1)
		e.buf = append(e.buf, ']')
	}
	e.nl(depth)
	e.buf = append(e.buf, '}')
	clear(e.memo)
}

func (e *jenc) batchResult(r *BatchResult, depth int) {
	if r.Prediction == nil && r.Error == "" {
		e.lit("{}")
		return
	}
	e.buf = append(e.buf, '{')
	first := true
	if r.Prediction != nil {
		e.field(&first, depth+1, "prediction")
		if span, ok := e.memo[r.Prediction]; ok {
			// append never reads past the old length, so copying a buffer
			// range onto its own tail is safe even across a growth realloc.
			e.buf = append(e.buf, e.buf[span[0]:span[1]]...)
		} else {
			lo := len(e.buf)
			e.prediction(r.Prediction, depth+1)
			e.memo[r.Prediction] = [2]int{lo, len(e.buf)}
		}
	}
	if r.Error != "" {
		e.field(&first, depth+1, "error")
		e.str(r.Error)
	}
	e.nl(depth)
	e.buf = append(e.buf, '}')
}

func (e *jenc) bounds(v []facile.ComponentBound, depth int) {
	if v == nil {
		e.lit("null")
		return
	}
	if len(v) == 0 {
		e.lit("[]")
		return
	}
	e.buf = append(e.buf, '[')
	for i := range v {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.nl(depth + 1)
		e.buf = append(e.buf, '{')
		first := true
		e.field(&first, depth+2, "component")
		e.str(v[i].Component)
		e.field(&first, depth+2, "cycles")
		e.flt(v[i].Cycles)
		e.field(&first, depth+2, "bottleneck")
		e.boolean(v[i].Bottleneck)
		e.nl(depth + 1)
		e.buf = append(e.buf, '}')
	}
	e.nl(depth)
	e.buf = append(e.buf, ']')
}

func (e *jenc) speedups(v []facile.Speedup, depth int) {
	if v == nil {
		e.lit("null")
		return
	}
	if len(v) == 0 {
		e.lit("[]")
		return
	}
	e.buf = append(e.buf, '[')
	for i := range v {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.nl(depth + 1)
		e.buf = append(e.buf, '{')
		first := true
		e.field(&first, depth+2, "component")
		e.str(v[i].Component)
		e.field(&first, depth+2, "factor")
		e.flt(v[i].Factor)
		e.nl(depth + 1)
		e.buf = append(e.buf, '}')
	}
	e.nl(depth)
	e.buf = append(e.buf, ']')
}

func (e *jenc) analysis(a *facile.Analysis, depth int) {
	e.buf = append(e.buf, '{')
	first := true
	e.field(&first, depth+1, "prediction")
	e.prediction(&a.Prediction, depth+1)
	e.field(&first, depth+1, "bounds")
	e.bounds(a.Bounds, depth+1)
	if len(a.Speedups) > 0 {
		e.field(&first, depth+1, "speedups")
		e.speedups(a.Speedups, depth+1)
	}
	if a.ReportText != "" {
		e.field(&first, depth+1, "report_text")
		e.str(a.ReportText)
	}
	e.nl(depth)
	e.buf = append(e.buf, '}')
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json writes verbatim inside a
// string with HTML escaping on: everything from 0x20 up except the quote,
// the backslash, and the HTML-significant '<', '>', '&'.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return
}()

// appendJSONString appends s as a JSON string, replicating encoding/json's
// escaping exactly: short escapes for \" \\ \b \f \n \r \t, \u00XX for other
// control bytes and for the HTML-escaped characters, � for invalid
// UTF-8, and  /  for the JS line separators.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
