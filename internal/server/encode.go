package server

import (
	"io"
	"sync"

	"facile"
	"facile/internal/jsonenc"
)

// jenc is a pooled append-based JSON encoder for the hot response types. Its
// output is byte-identical to the generic path (json.Encoder with a two-space
// indent). It writes only the server's own envelopes; the library's types
// encode themselves (Prediction.AppendJSON, Analysis.AppendJSON), and a
// cached prediction appends the bytes its engine entry remembers. Appending
// every value straight into one pooled buffer is what makes the batch
// response path allocation-free per block.
type jenc struct{ jsonenc.Encoder }

var jencPool = sync.Pool{New: func() any { return &jenc{jsonenc.Encoder{Buf: make([]byte, 0, 4<<10)}} }}

// maxRetainedEncodeBuf bounds the buffer capacity a pooled encoder retains;
// encoders grown beyond it (a maximum-size batch response) are dropped
// rather than pinned in the pool for the rest of the process.
const maxRetainedEncodeBuf = 1 << 20

// writeJSONFast writes v through the pooled encoder when it is one of the
// hot response types, reporting whether it did. A false return means
// nothing was written and the caller must use the generic encoder: either v
// is another type, or it holds a value encoding/json refuses (a non-finite
// float, an invalid mode), which the generic encoder then fails the same
// way, writing nothing.
func writeJSONFast(w io.Writer, v any) bool {
	e := jencPool.Get().(*jenc)
	e.Buf, e.Err = e.Buf[:0], nil
	ok := e.encode(v)
	if ok {
		w.Write(e.Buf) // nothing useful to do with a client write error
	}
	if cap(e.Buf) <= maxRetainedEncodeBuf {
		jencPool.Put(e)
	}
	return ok
}

// encode appends v's indented document (with the trailing newline
// json.Encoder emits) if v is one of the hot response types.
func (e *jenc) encode(v any) bool {
	switch t := v.(type) {
	case BatchResponse:
		e.batchResponse(&t)
	case *facile.Analysis:
		e.Buf, e.Err = t.AppendJSON(e.Buf, "")
	default:
		return false
	}
	e.Buf = append(e.Buf, '\n')
	return e.Err == nil
}

func (e *jenc) batchResponse(r *BatchResponse) {
	e.Buf = append(e.Buf, '{')
	first := true
	e.Field(&first, 1, "results")
	if e.OpenArray(r.Results == nil, len(r.Results)) {
		for i := range r.Results {
			e.Elem(i, 2)
			e.batchResult(&r.Results[i])
		}
		e.Close(1, ']')
	}
	e.Close(0, '}')
}

// predictionPrefix begins every line of a batch result's prediction after
// its first: the prediction is a member at depth 3 of the response. Every
// result's prediction is encoded at this one prefix, so a cached one is
// copied from its entry.
const predictionPrefix = "      "

func (e *jenc) batchResult(r *BatchResult) {
	if r.Prediction == nil && r.Error == "" {
		e.Buf = append(e.Buf, '{', '}')
		return
	}
	e.Buf = append(e.Buf, '{')
	first := true
	if r.Prediction != nil {
		e.Field(&first, 3, "prediction")
		var err error
		if e.Buf, err = r.Prediction.AppendJSON(e.Buf, predictionPrefix); err != nil {
			e.Fail(err)
		}
	}
	if r.Error != "" {
		e.Field(&first, 3, "error")
		e.String(r.Error)
	}
	e.Close(2, '}')
}
