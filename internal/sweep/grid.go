package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"facile"
)

// MaxPoints bounds how many design points one grid may enumerate. It is a
// resource backstop against accidental combinatorial explosion (axes
// multiply), far above any sweep a report is readable for.
const MaxPoints = 1 << 20

// Axis is one swept parameter: a microarchitecture spec field (wire name,
// e.g. "issue_width" or "lsd_enabled"), a single role's port assignment
// ("role_ports.alu"), or the whole role map ("role_ports"), together with
// the values the sweep tries for it. Values are raw JSON in the spec's wire
// types — numbers, booleans, port-number arrays.
type Axis struct {
	Param  string            `json:"param"`
	Values []json.RawMessage `json:"values"`
	// Labels optionally names each value for variant names and reports
	// (parallel to Values). Unlabeled values render as sanitized JSON.
	Labels []string `json:"labels,omitempty"`
}

// Grid is a design-space grid: a base microarchitecture and the axes to
// sweep. The grid enumerates the full cross product, one variant per
// combination; a grid with no axes enumerates exactly the base as a single
// point. Mode optionally fixes the throughput notion for the whole sweep
// ("loop" or "unroll"; empty means loop).
type Grid struct {
	Base string `json:"base"`
	Mode string `json:"mode,omitempty"`
	Axes []Axis `json:"axes"`
}

// Point is one enumerated design point: the variant's name and the spec
// overlay that derives it from the grid's base.
type Point struct {
	Name    string
	Overlay []byte
}

// ParseGrid decodes and structurally validates a grid from JSON, rejecting
// unknown fields so a typo fails loudly.
func ParseGrid(data []byte) (*Grid, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("sweep: invalid grid: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("sweep: invalid grid: trailing data after the JSON document")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// identityParams are spec fields that name a microarchitecture rather than
// shape it; sweeping them is always a mistake (derivation overwrites the
// name, and the rest would silently mislabel design points).
var identityParams = map[string]bool{
	"name": true, "base": true, "full_name": true, "cpu": true, "released": true,
}

// Validate checks the grid's structural invariants: a base, a parseable
// mode, and axes with distinct legal params, at least one value each, no
// duplicate values, and label lists matching their values. Whether a
// param/value combination yields a valid microarchitecture is decided at
// derivation time, per point, by the spec validator.
func (g *Grid) Validate() error {
	if g.Base == "" {
		return fmt.Errorf("sweep: grid is missing \"base\"")
	}
	if _, err := g.ResolveMode(); err != nil {
		return err
	}
	seen := make(map[string]bool, len(g.Axes))
	wholeRoleMap, dottedRole := false, false
	total := 1
	for i, ax := range g.Axes {
		if ax.Param == "" {
			return fmt.Errorf("sweep: axis %d is missing \"param\"", i)
		}
		if identityParams[ax.Param] {
			return fmt.Errorf("sweep: axis %d sweeps identity field %q (variants are named automatically)", i, ax.Param)
		}
		if seen[ax.Param] {
			return fmt.Errorf("sweep: axis %d repeats param %q", i, ax.Param)
		}
		seen[ax.Param] = true
		switch {
		case ax.Param == "role_ports":
			wholeRoleMap = true
		case strings.HasPrefix(ax.Param, "role_ports."):
			if ax.Param == "role_ports." {
				return fmt.Errorf("sweep: axis %d names no role after \"role_ports.\"", i)
			}
			dottedRole = true
		}
		if len(ax.Values) == 0 {
			return fmt.Errorf("sweep: axis %q has no values", ax.Param)
		}
		if len(ax.Labels) > 0 && len(ax.Labels) != len(ax.Values) {
			return fmt.Errorf("sweep: axis %q has %d labels for %d values", ax.Param, len(ax.Labels), len(ax.Values))
		}
		vals := make(map[string]string, len(ax.Values))
		for j, v := range ax.Values {
			c, err := compactJSON(v)
			if err != nil {
				return fmt.Errorf("sweep: axis %q value %d: %v", ax.Param, j, err)
			}
			key := valueKey(c)
			if first, ok := vals[key]; ok {
				if first != c {
					return fmt.Errorf("sweep: axis %q lists value %s twice (as %s)", ax.Param, first, c)
				}
				return fmt.Errorf("sweep: axis %q lists value %s twice", ax.Param, c)
			}
			vals[key] = c
			if len(ax.Labels) > 0 && strings.ContainsAny(ax.Labels[j], " \t\n,/~=") {
				return fmt.Errorf("sweep: axis %q label %q contains characters illegal in variant names", ax.Param, ax.Labels[j])
			}
		}
		if total > MaxPoints/len(ax.Values) {
			return fmt.Errorf("sweep: grid enumerates more than %d points", MaxPoints)
		}
		total *= len(ax.Values)
	}
	if wholeRoleMap && dottedRole {
		return fmt.Errorf("sweep: axes mix \"role_ports\" with \"role_ports.<role>\" (pick one form)")
	}
	return nil
}

// ResolveMode returns the sweep's throughput notion: the grid's "mode"
// field, defaulting to loop (TPL) when empty.
func (g *Grid) ResolveMode() (facile.Mode, error) {
	if g.Mode == "" {
		return facile.Loop, nil
	}
	return facile.ParseMode(g.Mode)
}

// Points returns how many design points the grid enumerates (the product of
// the axis sizes; 1 for a grid with no axes).
func (g *Grid) Points() int {
	total := 1
	for _, ax := range g.Axes {
		total *= len(ax.Values)
	}
	return total
}

// Enumerate materializes every design point in deterministic order: the
// cross product of the axes with the last axis varying fastest. Each
// point's overlay holds one value per axis; its name is the base plus one
// "param=value" fragment per axis, sanitized to satisfy the spec name
// rules.
func (g *Grid) Enumerate() ([]Point, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	d := newDesign(g, nil)
	pts := make([]Point, d.points)
	for p := range pts {
		pts[p] = Point{Name: d.name(p), Overlay: d.overlay(p)}
	}
	return pts, nil
}

// label renders one axis value for variant names: the explicit label when
// given, otherwise the compact JSON with characters illegal in spec names
// replaced.
func (ax *Axis) label(j int) string {
	if len(ax.Labels) > 0 {
		return ax.Labels[j]
	}
	c, err := compactJSON(ax.Values[j])
	if err != nil {
		// Validate rejected unparseable values already.
		c = "invalid"
	}
	return sanitizeLabel(c)
}

// sanitizeLabel maps a compact JSON value onto the spec-name alphabet:
// quotes vanish, whitespace/commas/slashes (and the name separators the
// sweep itself uses) become dots.
func sanitizeLabel(s string) string {
	var sb strings.Builder
	sb.Grow(len(s))
	for _, r := range s {
		switch r {
		case '"':
		case ' ', '\t', '\n', ',', '/', '~', '=':
			sb.WriteByte('.')
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// compactJSON returns v's compact rendering, validating it is one JSON
// value.
func compactJSON(v json.RawMessage) (string, error) {
	if len(bytes.TrimSpace(v)) == 0 {
		return "", fmt.Errorf("empty JSON value")
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, v); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// valueKey identifies an axis value, given as compact JSON, by what it
// means rather than how it is spelled: numbers by their float64 value (4,
// 4.0 and 4e0 are one value), object members in key order. A value
// encoding/json cannot hold, such as a number beyond float64's range, keeps
// its spelling, and so does one that spells its meaning (see plainValue).
func valueKey(c string) string {
	if plainValue(c) {
		return c
	}
	var x any
	if err := json.Unmarshal([]byte(c), &x); err != nil {
		return c
	}
	b, err := json.Marshal(x)
	if err != nil {
		return c
	}
	return string(b)
}

// plainValue reports whether the compact JSON value c is spelled as
// encoding/json spells what it means: c holds nothing but arrays, true,
// false, null and integers of at most 15 digits, which a float64 holds
// exactly and encoding/json writes digit for digit — the spec's widths,
// flags and port lists. Decoding such a value and encoding it again gives
// c back, so valueKey skips the round trip.
func plainValue(c string) bool {
	digits := 0
	for i := 0; i < len(c); i++ {
		switch ch := c[i]; {
		case '0' <= ch && ch <= '9':
			if digits++; digits > 15 {
				return false
			}
			continue
		case ch == '-' || ch == '[' || ch == ']' || ch == ',':
		case strings.HasPrefix(c[i:], "true"), strings.HasPrefix(c[i:], "null"):
			i += len("true") - 1
		case strings.HasPrefix(c[i:], "false"):
			i += len("false") - 1
		default:
			return false
		}
		digits = 0
	}
	return true
}
