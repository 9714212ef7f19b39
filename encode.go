package facile

import (
	"bytes"
	"fmt"

	"facile/internal/jsonenc"
)

// The wire form of Prediction and Analysis is their encoding/json form with
// a two-space indent. AppendJSON writes it without reflection, and an
// engine-cached prediction encodes once: its entry keeps the bytes of the
// first encoding (see engineEntry.wire), so a batch response that carries a
// warm prediction copies them.

// AppendJSON appends p's JSON encoding to dst and returns the extended
// slice: exactly the bytes json.MarshalIndent(p, prefix, "  ") returns, so
// the result embeds verbatim in an indented document whose lines at the
// prediction's depth begin with prefix. Where encoding/json refuses p (a
// non-finite CyclesPerIteration, an invalid Mode), AppendJSON returns dst
// unchanged and an error with encoding/json's text.
//
// A prediction served from an engine's cache remembers the prefix and bytes
// of its first AppendJSON call; a later call with the same prefix appends
// the remembered bytes. Calls with another prefix, and calls on copies of a
// served prediction, encode the fields afresh.
func (p *Prediction) AppendJSON(dst []byte, prefix string) ([]byte, error) {
	if p.entry != nil && &p.entry.ana.Prediction == p {
		return p.entry.appendPredictionJSON(dst, prefix)
	}
	return p.appendJSON(dst, prefix)
}

// AppendJSON appends a's JSON encoding to dst and returns the extended
// slice: exactly the bytes json.MarshalIndent(a, prefix, "  ") returns. Its
// prediction is always encoded afresh. Where encoding/json refuses a,
// AppendJSON returns dst unchanged and an error with encoding/json's text.
func (a *Analysis) AppendJSON(dst []byte, prefix string) ([]byte, error) {
	e := jsonenc.Encoder{Buf: dst, Prefix: prefix}
	encodeAnalysis(&e, a)
	return result(&e, len(dst))
}

func (p *Prediction) appendJSON(dst []byte, prefix string) ([]byte, error) {
	e := jsonenc.Encoder{Buf: dst, Prefix: prefix}
	encodePrediction(&e, p, 0)
	return result(&e, len(dst))
}

// result returns the encoder's document, or its refusal with the buffer cut
// back to the n bytes the caller passed in.
func result(e *jsonenc.Encoder, n int) ([]byte, error) {
	if e.Err != nil {
		return e.Buf[:n], e.Err
	}
	return e.Buf, nil
}

// predictionWire is a cached prediction's remembered encoding: the bytes of
// its first AppendJSON call and the prefix they carry.
type predictionWire struct {
	prefix string
	json   []byte
}

// wireBaseBytes is the accounted footprint of a predictionWire besides its
// bytes.
const wireBaseBytes = 48

// appendPredictionJSON is AppendJSON on the entry's own prediction. The first
// successful encoding of a cached entry is published once; when two calls
// race, the later publication is dropped. Publishing re-registers the entry's
// accounted size, which now includes the bytes.
func (ent *engineEntry) appendPredictionJSON(dst []byte, prefix string) ([]byte, error) {
	w := ent.wire.Load()
	if w != nil && w.prefix == prefix {
		return append(dst, w.json...), nil
	}
	n := len(dst)
	dst, err := ent.ana.Prediction.appendJSON(dst, prefix)
	if err != nil || w != nil {
		return dst, err
	}
	if ent.wire.CompareAndSwap(nil, &predictionWire{prefix: prefix, json: bytes.Clone(dst[n:])}) {
		p := &ent.ana.Prediction
		ent.eng.recordEntrySize(ent, p.Arch, ent.ver, p.Mode)
	}
	return dst, nil
}

func encodePrediction(e *jsonenc.Encoder, p *Prediction, depth int) {
	e.Buf = append(e.Buf, '{')
	first := true
	e.Field(&first, depth+1, "cycles_per_iteration")
	e.Float(p.CyclesPerIteration)
	e.Field(&first, depth+1, "arch")
	e.String(p.Arch)
	e.Field(&first, depth+1, "mode")
	encodeMode(e, p.Mode)
	e.Field(&first, depth+1, "bottlenecks")
	e.Strings(p.Bottlenecks, depth+1)
	if p.FrontEndSource != "" {
		e.Field(&first, depth+1, "front_end_source")
		e.String(p.FrontEndSource)
	}
	if len(p.CriticalChain) > 0 {
		e.Field(&first, depth+1, "critical_chain")
		e.Ints(p.CriticalChain, depth+1)
	}
	if p.ContendedPorts != "" {
		e.Field(&first, depth+1, "contended_ports")
		e.String(p.ContendedPorts)
	}
	if len(p.ContendedInstrs) > 0 {
		e.Field(&first, depth+1, "contended_instrs")
		e.Ints(p.ContendedInstrs, depth+1)
	}
	e.Field(&first, depth+1, "instructions")
	e.Strings(p.Instructions, depth+1)
	e.Close(depth, '}')
}

// encodeMode writes m through its MarshalText vocabulary. An invalid mode
// fails MarshalText, and so the document, as it does in encoding/json.
func encodeMode(e *jsonenc.Encoder, m Mode) {
	switch m {
	case Loop:
		e.Buf = append(e.Buf, `"loop"`...)
	case Unroll:
		e.Buf = append(e.Buf, `"unroll"`...)
	default:
		_, err := m.MarshalText()
		e.Fail(fmt.Errorf("json: error calling MarshalText for type facile.Mode: %w", err))
	}
}

func encodeAnalysis(e *jsonenc.Encoder, a *Analysis) {
	e.Buf = append(e.Buf, '{')
	first := true
	e.Field(&first, 1, "prediction")
	encodePrediction(e, &a.Prediction, 1)
	e.Field(&first, 1, "bounds")
	if e.OpenArray(a.Bounds == nil, len(a.Bounds)) {
		for i := range a.Bounds {
			e.Elem(i, 2)
			b := &a.Bounds[i]
			e.Buf = append(e.Buf, '{')
			first := true
			e.Field(&first, 3, "component")
			e.String(b.Component)
			e.Field(&first, 3, "cycles")
			e.Float(b.Cycles)
			e.Field(&first, 3, "bottleneck")
			e.Bool(b.Bottleneck)
			e.Close(2, '}')
		}
		e.Close(1, ']')
	}
	if len(a.Speedups) > 0 {
		e.Field(&first, 1, "speedups")
		e.Buf = append(e.Buf, '[')
		for i := range a.Speedups {
			e.Elem(i, 2)
			s := &a.Speedups[i]
			e.Buf = append(e.Buf, '{')
			first := true
			e.Field(&first, 3, "component")
			e.String(s.Component)
			e.Field(&first, 3, "factor")
			e.Float(s.Factor)
			e.Close(2, '}')
		}
		e.Close(1, ']')
	}
	if a.ReportText != "" {
		e.Field(&first, 1, "report_text")
		e.String(a.ReportText)
	}
	e.Close(0, '}')
}
