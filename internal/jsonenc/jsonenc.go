// Package jsonenc holds the primitives of facile's append-based JSON
// encoders: string escaping, float formatting and indentation, each
// byte-identical to what encoding/json's MarshalIndent writes with a
// two-space indent. The facile package encodes its own result types with
// them, and the server encodes its response envelopes around those.
package jsonenc

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// Encoder appends one indented JSON document to Buf. Prefix begins every
// line after the first, as MarshalIndent's prefix does, so a value encoded
// at prefix p embeds verbatim in an enclosing document wherever its lines
// carry p. Err records the first value encoding/json would refuse (a
// non-finite float, a failing MarshalText); the document is then invalid
// and the caller must discard Buf.
type Encoder struct {
	Buf    []byte
	Prefix string
	Err    error
}

// Fail records err unless an earlier refusal is already recorded:
// encoding/json reports the first failing value of a document.
func (e *Encoder) Fail(err error) {
	if e.Err == nil {
		e.Err = err
	}
}

// spaces indents the deepest lines facile's documents hold: depth 3, the
// members of an Analysis bound and of a batch result.
const spaces = "      "

// Newline starts a line at depth (at most 3): newline, prefix, two spaces
// per level.
func (e *Encoder) Newline(depth int) {
	e.Buf = append(e.Buf, '\n')
	e.Buf = append(e.Buf, e.Prefix...)
	e.Buf = append(e.Buf, spaces[:2*depth]...)
}

// Field opens the next key of an object whose members sit at depth: element
// separator, new line, quoted key, colon. Keys are trusted literals that need
// no escaping.
func (e *Encoder) Field(first *bool, depth int, key string) {
	if !*first {
		e.Buf = append(e.Buf, ',')
	}
	*first = false
	e.Newline(depth)
	e.Buf = append(e.Buf, '"')
	e.Buf = append(e.Buf, key...)
	e.Buf = append(e.Buf, '"', ':', ' ')
}

// Close ends an object or array whose opening bracket sits at depth.
func (e *Encoder) Close(depth int, bracket byte) {
	e.Newline(depth)
	e.Buf = append(e.Buf, bracket)
}

// OpenArray writes what precedes a slice's elements and reports whether any
// follow: null for a nil slice and [] for an empty one (false), else the
// opening bracket (true).
func (e *Encoder) OpenArray(isNil bool, n int) bool {
	switch {
	case isNil:
		e.Buf = append(e.Buf, "null"...)
	case n == 0:
		e.Buf = append(e.Buf, '[', ']')
	default:
		e.Buf = append(e.Buf, '[')
		return true
	}
	return false
}

// Elem starts element i of an array whose elements sit at depth.
func (e *Encoder) Elem(i, depth int) {
	if i > 0 {
		e.Buf = append(e.Buf, ',')
	}
	e.Newline(depth)
}

// String appends s as a JSON string.
func (e *Encoder) String(s string) { e.Buf = AppendString(e.Buf, s) }

// Int appends i in decimal.
func (e *Encoder) Int(i int) { e.Buf = strconv.AppendInt(e.Buf, int64(i), 10) }

// Bool appends true or false.
func (e *Encoder) Bool(b bool) {
	if b {
		e.Buf = append(e.Buf, "true"...)
	} else {
		e.Buf = append(e.Buf, "false"...)
	}
}

// Float appends f the way encoding/json does: shortest representation,
// fixed notation unless the magnitude crosses the 1e-6/1e21 thresholds, and
// the exponent's leading zero stripped ("e-09" -> "e-9"). A NaN or an
// infinity is refused with encoding/json's own error.
func (e *Encoder) Float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.Fail(&json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)})
		return
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.Buf = strconv.AppendFloat(e.Buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.Buf); n >= 4 && e.Buf[n-4] == 'e' && e.Buf[n-3] == '-' && e.Buf[n-2] == '0' {
			e.Buf[n-2] = e.Buf[n-1]
			e.Buf = e.Buf[:n-1]
		}
	}
}

// Strings appends a string slice whose opening bracket sits at depth.
func (e *Encoder) Strings(v []string, depth int) {
	if !e.OpenArray(v == nil, len(v)) {
		return
	}
	for i, s := range v {
		e.Elem(i, depth+1)
		e.String(s)
	}
	e.Close(depth, ']')
}

// Ints appends an int slice whose opening bracket sits at depth.
func (e *Encoder) Ints(v []int, depth int) {
	if !e.OpenArray(v == nil, len(v)) {
		return
	}
	for i, x := range v {
		e.Elem(i, depth+1)
		e.Int(x)
	}
	e.Close(depth, ']')
}

const hexDigits = "0123456789abcdef"

// safe marks the ASCII bytes encoding/json writes verbatim inside a string
// with HTML escaping on: everything from 0x20 up except the quote, the
// backslash, and the HTML-significant '<', '>', '&'.
var safe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return
}()

// AppendString appends s as a JSON string, replicating encoding/json's
// escaping exactly: short escapes for \" \\ \b \f \n \r \t, \u00XX for other
// control bytes and for the HTML-escaped characters, \ufffd for invalid
// UTF-8, and \u2028 and \u2029 for the JS line separators.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safe[b] {
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
