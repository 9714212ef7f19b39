package uarch

import (
	"bytes"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// genNames maps Gen ordinals to their wire names; the names coincide with
// the short names of the nine Table 1 microarchitectures that introduced
// each generation.
var genNames = [...]string{"SNB", "IVB", "HSW", "BDW", "SKL", "CLX", "ICL", "TGL", "RKL"}

// String returns the generation's wire name ("SNB" … "RKL").
func (g Gen) String() string {
	if g >= 1 && int(g) <= len(genNames) {
		return genNames[g-1]
	}
	return fmt.Sprintf("Gen(%d)", int(g))
}

// MarshalText renders the generation's wire name.
func (g Gen) MarshalText() ([]byte, error) { return []byte(g.String()), nil }

// UnmarshalText parses a wire name, case-insensitively.
func (g *Gen) UnmarshalText(text []byte) error {
	for i, n := range genNames {
		if strings.EqualFold(n, string(text)) {
			*g = Gen(i + 1)
			return nil
		}
	}
	return fmt.Errorf("uarch: unknown generation %q (one of %s)",
		text, strings.Join(genNames[:], ", "))
}

// RoleTable maps each µop role to the ports it may dispatch to. Its JSON
// form is an object from role name ("alu", "load", …; see Role) to the
// ascending list of port numbers, with [] for a role without ports.
type RoleTable [NumRoles]PortMask

// rolesByName lists the roles in the order of their names, the key order of
// a rendered RoleTable.
var rolesByName = func() []Role {
	out := make([]Role, NumRoles)
	for r := range out {
		out[r] = Role(r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}()

// roleByName maps role wire names onto Role ordinals.
var roleByName = func() map[string]Role {
	m := make(map[string]Role, NumRoles)
	for r := Role(0); r < NumRoles; r++ {
		m[r.String()] = r
	}
	return m
}()

// MarshalJSON renders every role, in name order.
func (t RoleTable) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for i, r := range rolesByName {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, r.String())
		b = append(b, ':', '[')
		for j, p := range t[r].Ports() {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(p), 10)
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// UnmarshalJSON decodes a role object onto t role by role, so an overlay
// naming one role leaves the others as they were. A null port list empties
// its role, and a null table empties every role (Validate then reports the
// roles left without ports). An unknown role, a port outside the 16-port
// mask, or a port listed twice is an error here, before num_ports is known;
// Validate checks the ports against num_ports. A port list of the wrong
// JSON type is a type error whose field is the role, so a spec error names
// it (role_ports.alu).
func (t *RoleTable) UnmarshalJSON(data []byte) error {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m == nil {
		*t = RoleTable{}
		return nil
	}
	for name := range m {
		if _, ok := roleByName[name]; !ok {
			return fmt.Errorf("unknown role %q in role_ports", name)
		}
	}
	for r := Role(0); r < NumRoles; r++ {
		raw, ok := m[r.String()]
		if !ok {
			continue
		}
		var ports []int
		if err := json.Unmarshal(raw, &ports); err != nil {
			var te *json.UnmarshalTypeError
			if errors.As(err, &te) {
				te.Field = r.String()
			}
			return err
		}
		var mask PortMask
		for _, p := range ports {
			if p < 0 || p >= 16 {
				return fmt.Errorf("role %q uses port %d outside [0, 16)", r.String(), p)
			}
			if mask.Has(p) {
				return fmt.Errorf("role %q lists port %d twice", r.String(), p)
			}
			mask |= P(p)
		}
		t[r] = mask
	}
	return nil
}

// specDoc is a spec document: a Config plus, for an overlay, the name of
// the registered base it overlays.
type specDoc struct {
	*Config
	Base string `json:"base"`
}

// decodeSpec decodes a spec document onto c, leaving the fields it does not
// name untouched (this is what makes an overlay a plain decode), and returns
// the document's "base". Unknown fields are rejected, so a typo in an
// overlay fails loudly instead of silently changing nothing.
func decodeSpec(c *Config, data []byte) (base string, err error) {
	base, err = decodeDoc(c, data)
	if err != nil {
		return "", specError(err)
	}
	return base, nil
}

// decodeDoc is decodeSpec with the decoder's own errors.
func decodeDoc(c *Config, data []byte) (base string, err error) {
	doc := specDoc{Config: c}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return "", err
	}
	return doc.Base, nil
}

// specError words an error decoding a spec document in the document's
// terms: a value of the wrong JSON type names its spec field (a role's
// port list as role_ports.<role>) and the JSON type the field wants, and a
// document that is no JSON object says so. Other errors, such as malformed
// JSON, keep their text.
func specError(err error) error {
	var te *json.UnmarshalTypeError
	switch {
	case !errors.As(err, &te):
		return fmt.Errorf("uarch: invalid spec: %w", err)
	case te.Field == "":
		return fmt.Errorf("uarch: spec must be a JSON object, got %s", te.Value)
	}
	// The path runs through specDoc's embedded Config.
	field := strings.TrimPrefix(te.Field, "Config.")
	return fmt.Errorf("uarch: invalid spec: %s: want %s, got %s", field, jsonType(te.Type), te.Value)
}

// jsonType names the JSON type a value of t decodes from.
func jsonType(t reflect.Type) string {
	if reflect.PointerTo(t).Implements(reflect.TypeFor[encoding.TextUnmarshaler]()) {
		return "a string"
	}
	switch t.Kind() {
	case reflect.Bool:
		return "a boolean"
	case reflect.String:
		return "a string"
	case reflect.Slice, reflect.Array:
		return "an array"
	case reflect.Map, reflect.Struct:
		return "an object"
	}
	return "an integer"
}

// JSON renders c as a spec document in the embedded-file layout: two-space
// indent, with each role's port list collapsed onto one line.
func (c *Config) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	// Collapse numeric arrays, but only inside the role_ports object —
	// which is marshaled last (struct field order) and whose keys are role
	// names — so bracketed text in string fields ("test [1, 2]" in a
	// full_name) is never touched.
	idx := bytes.Index(data, []byte(`"role_ports"`))
	if idx < 0 {
		return data, nil
	}
	head, tail := data[:idx], data[idx:]
	tail = portArrayRe.ReplaceAllFunc(tail, func(m []byte) []byte {
		return bytes.Map(func(r rune) rune {
			if r == ' ' || r == '\n' {
				return -1
			}
			return r
		}, m)
	})
	return append(append([]byte(nil), head...), tail...), nil
}

// portArrayRe matches an all-numeric JSON array (a port list) including the
// whitespace MarshalIndent spread it over.
var portArrayRe = regexp.MustCompile(`\[[\s\d,]*\]`)

// MaxSpecValue bounds every width, buffer size and latency of a spec. Real
// cores stay below a few hundred; the bound keeps an untrusted overlay from
// sizing an analysis's tables (the decoder model keeps one entry per
// decoder) at gigabytes.
const MaxSpecValue = 1 << 12

// Validate checks the config's structural invariants: a name, a known
// generation, plausible widths and buffer sizes, LSD/IDQ consistency, and
// port masks that cover every role and fit the machine. It reports the
// first violation found.
func (c *Config) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("uarch: invalid spec %q: %s", c.Name, fmt.Sprintf(format, args...))
	}
	if c.Name == "" {
		return fmt.Errorf("uarch: invalid spec: missing \"name\"")
	}
	if strings.ContainsAny(c.Name, " \t\n,/") {
		return bad("name must not contain whitespace, commas, or slashes")
	}
	if c.Gen == 0 {
		return bad("missing \"gen\"")
	}
	if c.Gen < 0 || int(c.Gen) > len(genNames) {
		return bad("unknown generation %v", c.Gen)
	}

	// Widths and buffer sizes must be positive, the LSD unroll target and
	// the latencies non-negative, and all of them at most MaxSpecValue, so
	// no spec can make an analysis allocate or loop in proportion to an
	// absurd count. NumPorts must also fit the PortMask representation.
	for _, f := range []struct {
		name string
		v    int
		min  int
	}{
		{"predec_width", c.PredecWidth, 1}, {"num_decoders", c.NumDecoders, 1},
		{"iq_size", c.IQSize, 1}, {"dsb_width", c.DSBWidth, 1}, {"idq_size", c.IDQSize, 1},
		{"issue_width", c.IssueWidth, 1}, {"retire_width", c.RetireWidth, 1},
		{"rob_size", c.ROBSize, 1}, {"sched_size", c.SchedSize, 1},
		{"num_ports", c.NumPorts, 1},
		{"lsd_unroll_target", c.LSDUnrollTgt, 0}, {"load_latency", c.LoadLat, 0},
		{"fp_add_latency", c.FPAddLat, 0}, {"fp_mul_latency", c.FPMulLat, 0},
		{"fma_latency", c.FMALat, 0},
	} {
		switch {
		case f.v < f.min && f.min > 0:
			return bad("%s must be positive (got %d)", f.name, f.v)
		case f.v < f.min:
			return bad("%s must not be negative (got %d)", f.name, f.v)
		case f.v > MaxSpecValue:
			return bad("%s must be at most %d (got %d)", f.name, MaxSpecValue, f.v)
		}
	}
	if c.NumPorts > 16 {
		return bad("num_ports %d exceeds the 16-port mask representation", c.NumPorts)
	}

	// LSD/IDQ invariants: the LSD window is the IDQ, so the unroll target
	// cannot exceed it, and an enabled LSD needs an IDQ to stream from.
	if c.LSDUnrollTgt > c.IDQSize {
		return bad("lsd_unroll_target %d exceeds idq_size %d (the LSD window is the IDQ)",
			c.LSDUnrollTgt, c.IDQSize)
	}

	// Every role's ports must exist on the machine, and only the FMA role
	// may be empty (no FMA units pre-Haswell); its presence must agree with
	// the FMA latency.
	machine := PortMask(1<<c.NumPorts - 1)
	for r := Role(0); r < NumRoles; r++ {
		ports := c.RolePorts[r]
		if outside := ports &^ machine; outside != 0 {
			return bad("role %q uses port %d outside [0, %d)",
				r.String(), bits.TrailingZeros16(uint16(outside)), c.NumPorts)
		}
		if ports == 0 && r != RoleVecFMA {
			return bad("role %q has no ports", r.String())
		}
	}
	if fma := c.RolePorts[RoleVecFMA]; (fma == 0) != (c.FMALat == 0) {
		return bad("fma_latency %d disagrees with the %q port assignment %v (no FMA units ⇔ zero latency)",
			c.FMALat, RoleVecFMA.String(), fma.Ports())
	}
	return nil
}
