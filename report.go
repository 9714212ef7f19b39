package facile

import (
	"strconv"

	"facile/internal/core"
)

// renderReport renders the human-readable bottleneck report of an analysis
// at DetailFull: the decoded block with each instruction's role in the
// primary bottleneck (Prediction.Bottlenecks[0]) marked, the component
// bounds in pipeline order, the primary bottleneck's evidence, and the
// counterfactual speedups in pipeline order. The format is pinned by golden
// files. The text is built in a stack buffer and copied out once, so a
// typical report costs one allocation.
func renderReport(a *Analysis) string {
	p := &a.Prediction
	primary := ""
	if len(p.Bottlenecks) > 0 {
		primary = p.Bottlenecks[0]
	}
	// marks[k] flags instruction k's role in the primary bottleneck:
	// 'D' — on the critical loop-carried dependence cycle, 'P' — restricted
	// to the contended execution ports.
	var (
		markSpace [256]byte
		marks     []byte
		marker    byte
		marked    []int
	)
	switch primary {
	case "Precedence":
		marker, marked = 'D', p.CriticalChain
	case "Ports":
		marker, marked = 'P', p.ContendedInstrs
	}
	if n := len(p.Instructions); len(marked) > 0 {
		if n <= len(markSpace) {
			marks = markSpace[:n]
		} else {
			marks = make([]byte, n)
		}
		for _, k := range marked {
			if k >= 0 && k < n {
				marks[k] = marker
			}
		}
	}

	var stack [4096]byte
	b := stack[:0]
	b = append(b, "Facile throughput report — "...)
	b = append(b, p.Arch...)
	b = append(b, ", "...)
	b = append(b, p.Mode.String()...)
	b = append(b, "\nPredicted: "...)
	b = strconv.AppendFloat(b, p.CyclesPerIteration, 'f', 2, 64)
	b = append(b, " cycles/iteration\n\nBlock:\n"...)
	for k, text := range p.Instructions {
		b = append(b, ' ', ' ')
		if k < 10 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(k), 10)
		m := byte(' ')
		if marks != nil && marks[k] != 0 {
			m = marks[k]
		}
		b = append(b, ' ', m, ' ')
		b = append(b, text...)
		b = append(b, '\n')
	}

	b = append(b, "\nComponent bounds (cycles/iteration):\n"...)
	for _, cb := range a.Bounds {
		mark := byte(' ')
		if cb.Bottleneck {
			mark = '*'
		}
		b = append(b, ' ', ' ', mark, ' ')
		b = appendPadded(b, cb.Component, 11)
		b = append(b, ' ')
		start := len(b)
		b = strconv.AppendFloat(b, cb.Cycles, 'f', 2, 64)
		b = padLeft(b, start, 8)
		b = append(b, '\n')
	}
	if p.FrontEndSource != "" {
		b = append(b, "  front end served by: "...)
		b = append(b, p.FrontEndSource...)
		b = append(b, '\n')
	}

	if primary != "" {
		b = append(b, "\nPrimary bottleneck: "...)
		b = append(b, primary...)
		b = append(b, '\n')
		switch primary {
		case "Precedence":
			b = append(b, "  loop-carried dependence chain through instructions "...)
			b = appendIntList(b, p.CriticalChain)
			b = append(b, " (marked D)\n"...)
		case "Ports":
			b = append(b, "  contention on ports "...)
			b = append(b, p.ContendedPorts...)
			b = append(b, " by instructions "...)
			b = appendIntList(b, p.ContendedInstrs)
			b = append(b, " (marked P)\n"...)
		}
	}

	b = append(b, "\nCounterfactual speedups (component made infinitely fast):\n"...)
	// The table prints in pipeline order (matching the bounds section);
	// a.Speedups itself is sorted by factor.
	for c := core.Component(0); c < core.NumComponents; c++ {
		name := c.String()
		for i := range a.Speedups {
			if a.Speedups[i].Component == name {
				b = append(b, ' ', ' ')
				b = appendPadded(b, name, 11)
				b = append(b, ' ')
				b = strconv.AppendFloat(b, a.Speedups[i].Factor, 'f', 2, 64)
				b = append(b, 'x', '\n')
				break
			}
		}
	}
	return string(b)
}

// appendPadded appends s left-justified in a field of width bytes, as fmt's
// %-<width>s does for the ASCII component names.
func appendPadded(b []byte, s string, width int) []byte {
	b = append(b, s...)
	for n := len(s); n < width; n++ {
		b = append(b, ' ')
	}
	return b
}

// padLeft right-justifies the text appended since start in a field of width
// bytes, as fmt's %<width>.2f does.
func padLeft(b []byte, start, width int) []byte {
	n := len(b) - start
	if n >= width {
		return b
	}
	pad := width - n
	b = append(b, make([]byte, pad)...)
	copy(b[start+pad:], b[start:start+n])
	for i := start; i < start+pad; i++ {
		b[i] = ' '
	}
	return b
}

// appendIntList appends v the way fmt's %v prints an []int: "[0 1 2]".
func appendIntList(b []byte, v []int) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}
