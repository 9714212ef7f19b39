package facile

import (
	"context"
	"reflect"
)

// predictT is the single-block prediction call shape the behavioural tests
// below were written against, expressed over the Analyze API.
func predictT(e *Engine, code []byte, arch string, mode Mode) (Prediction, error) {
	ana, err := e.Analyze(context.Background(), Request{Code: code, Arch: arch, Mode: mode})
	if err != nil {
		return Prediction{}, err
	}
	return ana.Prediction, nil
}

// EqualAnalyses reports whether a and b are deeply equal, nil and empty
// slices told apart, in everything but Prediction.entry, which says only
// whether an analysis is a cache entry's own: a cached analysis and a
// private one of the same request differ there and nowhere else. The
// external tests compare analyses through it.
func EqualAnalyses(a, b *Analysis) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, y := *a, *b
	x.Prediction.entry, y.Prediction.entry = nil, nil
	return reflect.DeepEqual(x, y)
}
