package uarch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
)

// Spec is the declarative, JSON-serializable form of a Config. It is the
// source of truth for the microarchitecture layer: the nine Table 1
// microarchitectures ship as embedded spec files (see specs/), and new
// scenarios — hypothetical design points, erratum toggles, future cores —
// are opened by loading a spec at runtime instead of recompiling.
//
// The field set mirrors Config one-to-one, with two wire-level differences:
// Gen is the generation name ("SNB" … "RKL") rather than an ordinal, and
// RolePorts maps role names ("alu", "load", …; see Role) to lists of port
// numbers rather than bit masks.
//
// A spec may name a Base microarchitecture, in which case it is an overlay:
// the base's spec is materialized first and the overlay's JSON is decoded on
// top of it, so only the overridden fields need to be present ("SKL but
// lsd_enabled true"). Overlays are resolved by Registry.Load.
type Spec struct {
	Name     string `json:"name"`
	FullName string `json:"full_name,omitempty"`
	CPU      string `json:"cpu,omitempty"`
	Released int    `json:"released,omitempty"`
	Gen      string `json:"gen"`
	Base     string `json:"base,omitempty"`

	// Front end.
	PredecWidth  int  `json:"predec_width"`
	NumDecoders  int  `json:"num_decoders"`
	IQSize       int  `json:"iq_size"`
	DSBWidth     int  `json:"dsb_width"`
	IDQSize      int  `json:"idq_size"`
	LSDEnabled   bool `json:"lsd_enabled"`
	LSDUnrollTgt int  `json:"lsd_unroll_target"`
	JCCErratum   bool `json:"jcc_erratum"`

	// Back end.
	IssueWidth  int `json:"issue_width"`
	RetireWidth int `json:"retire_width"`
	ROBSize     int `json:"rob_size"`
	SchedSize   int `json:"sched_size"`
	NumPorts    int `json:"num_ports"`

	// Fusion and elimination behavior.
	MacroFusion          bool `json:"macro_fusion"`
	FusibleOnLastDecoder bool `json:"fusible_on_last_decoder"`
	FuseWithMem          bool `json:"fuse_with_mem"`
	MoveElimGPR          bool `json:"move_elim_gpr"`
	MoveElimVec          bool `json:"move_elim_vec"`
	UnlaminateIndexed    bool `json:"unlaminate_indexed"`

	// Key latencies (cycles).
	LoadLat  int `json:"load_latency"`
	FPAddLat int `json:"fp_add_latency"`
	FPMulLat int `json:"fp_mul_latency"`
	FMALat   int `json:"fma_latency"`

	RolePorts map[string]PortList `json:"role_ports"`
}

// PortList is a list of port numbers: a plain JSON array on the wire. The
// named type exists so the whole role map reads as what it is in code.
type PortList []int

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

// ParseGen maps a wire name onto a Gen (case-insensitive).
func ParseGen(name string) (Gen, error) {
	for i, n := range genNames {
		if strings.EqualFold(n, name) {
			return Gen(i + 1), nil
		}
	}
	return 0, fmt.Errorf("uarch: unknown generation %q (one of %s)",
		name, strings.Join(genNames[:], ", "))
}

// roleByName maps role wire names onto Role ordinals.
var roleByName = func() map[string]Role {
	m := make(map[string]Role, NumRoles)
	for r := Role(0); r < NumRoles; r++ {
		m[r.String()] = r
	}
	return m
}()

// ParseSpec decodes one spec from JSON, rejecting unknown fields so a typo
// in an overlay fails loudly instead of silently changing nothing.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := unmarshalSpecInto(data, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// unmarshalSpecInto decodes data over s, leaving fields absent from the JSON
// untouched (this is what makes overlay resolution a plain decode).
func unmarshalSpecInto(data []byte, s *Spec) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(s); err != nil {
		return fmt.Errorf("uarch: invalid spec: %w", err)
	}
	return nil
}

// SpecFromConfig materializes the spec form of a Config. The result
// round-trips: SpecFromConfig(c).Config() is field-identical to c.
func SpecFromConfig(c *Config) *Spec {
	s := &Spec{
		Name: c.Name, FullName: c.FullName, CPU: c.CPU,
		Released: c.Released, Gen: c.Gen.String(),
		PredecWidth: c.PredecWidth, NumDecoders: c.NumDecoders, IQSize: c.IQSize,
		DSBWidth: c.DSBWidth, IDQSize: c.IDQSize,
		LSDEnabled: c.LSDEnabled, LSDUnrollTgt: c.LSDUnrollTgt,
		JCCErratum: c.JCCErratum,
		IssueWidth: c.IssueWidth, RetireWidth: c.RetireWidth,
		ROBSize: c.ROBSize, SchedSize: c.SchedSize, NumPorts: c.NumPorts,
		MacroFusion:          c.MacroFusion,
		FusibleOnLastDecoder: c.FusibleOnLastDecoder,
		FuseWithMem:          c.FuseWithMem,
		MoveElimGPR:          c.MoveElimGPR, MoveElimVec: c.MoveElimVec,
		UnlaminateIndexed: c.UnlaminateIndexed,
		LoadLat:           c.LoadLat, FPAddLat: c.FPAddLat,
		FPMulLat: c.FPMulLat, FMALat: c.FMALat,
		RolePorts: make(map[string]PortList, NumRoles),
	}
	for r := Role(0); r < NumRoles; r++ {
		ports := PortList(c.RolePorts[r].Ports())
		if ports == nil {
			ports = PortList{} // marshal as [], not null
		}
		s.RolePorts[r.String()] = ports
	}
	return s
}

// JSON renders the spec in the embedded-file layout: two-space indent, with
// each role's port list collapsed onto one line.
func (s *Spec) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
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

// Config validates the spec and converts it to a Config. The returned
// Config is freshly allocated and safe to retain.
func (s *Spec) Config() (*Config, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	gen, _ := ParseGen(s.Gen) // Validate checked it
	c := &Config{
		Name: s.Name, FullName: s.FullName, CPU: s.CPU,
		Released: s.Released, Gen: gen,
		PredecWidth: s.PredecWidth, NumDecoders: s.NumDecoders, IQSize: s.IQSize,
		DSBWidth: s.DSBWidth, IDQSize: s.IDQSize,
		LSDEnabled: s.LSDEnabled, LSDUnrollTgt: s.LSDUnrollTgt,
		JCCErratum: s.JCCErratum,
		IssueWidth: s.IssueWidth, RetireWidth: s.RetireWidth,
		ROBSize: s.ROBSize, SchedSize: s.SchedSize, NumPorts: s.NumPorts,
		MacroFusion:          s.MacroFusion,
		FusibleOnLastDecoder: s.FusibleOnLastDecoder,
		FuseWithMem:          s.FuseWithMem,
		MoveElimGPR:          s.MoveElimGPR, MoveElimVec: s.MoveElimVec,
		UnlaminateIndexed: s.UnlaminateIndexed,
		LoadLat:           s.LoadLat, FPAddLat: s.FPAddLat,
		FPMulLat: s.FPMulLat, FMALat: s.FMALat,
	}
	for name, ports := range s.RolePorts {
		r := roleByName[name] // Validate checked membership
		c.RolePorts[r] = P(ports...)
	}
	return c, nil
}

// MaxSpecValue bounds every width, buffer size and latency of a spec. Real
// cores stay below a few hundred; the bound keeps an untrusted overlay from
// sizing an analysis's tables (the decoder model keeps one entry per
// decoder) at gigabytes.
const MaxSpecValue = 1 << 12

// Validate checks the spec's structural invariants: a resolvable generation,
// plausible widths and buffer sizes, LSD/IDQ consistency, full role
// coverage, and port masks that fit the machine. It reports the first
// violation found.
func (s *Spec) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("uarch: invalid spec %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if s.Name == "" {
		return fmt.Errorf("uarch: invalid spec: missing \"name\"")
	}
	if strings.ContainsAny(s.Name, " \t\n,/") {
		return bad("name must not contain whitespace, commas, or slashes")
	}
	if s.Base != "" {
		return bad("unresolved \"base\" %q (load overlays through a Registry)", s.Base)
	}
	if s.Gen == "" {
		return bad("missing \"gen\"")
	}
	if _, err := ParseGen(s.Gen); err != nil {
		return bad("%v", err)
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
		{"predec_width", s.PredecWidth, 1}, {"num_decoders", s.NumDecoders, 1},
		{"iq_size", s.IQSize, 1}, {"dsb_width", s.DSBWidth, 1}, {"idq_size", s.IDQSize, 1},
		{"issue_width", s.IssueWidth, 1}, {"retire_width", s.RetireWidth, 1},
		{"rob_size", s.ROBSize, 1}, {"sched_size", s.SchedSize, 1},
		{"num_ports", s.NumPorts, 1},
		{"lsd_unroll_target", s.LSDUnrollTgt, 0}, {"load_latency", s.LoadLat, 0},
		{"fp_add_latency", s.FPAddLat, 0}, {"fp_mul_latency", s.FPMulLat, 0},
		{"fma_latency", s.FMALat, 0},
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
	if s.NumPorts > 16 {
		return bad("num_ports %d exceeds the 16-port mask representation", s.NumPorts)
	}

	// LSD/IDQ invariants: the LSD window is the IDQ, so the unroll target
	// cannot exceed it, and an enabled LSD needs an IDQ to stream from.
	if s.LSDUnrollTgt > s.IDQSize {
		return bad("lsd_unroll_target %d exceeds idq_size %d (the LSD window is the IDQ)",
			s.LSDUnrollTgt, s.IDQSize)
	}

	// Role coverage: every role must be assigned, unknown roles rejected.
	if s.RolePorts == nil {
		return bad("missing \"role_ports\"")
	}
	for name := range s.RolePorts {
		if _, ok := roleByName[name]; !ok {
			return bad("unknown role %q in role_ports", name)
		}
	}
	for r := Role(0); r < NumRoles; r++ {
		ports, ok := s.RolePorts[r.String()]
		if !ok {
			return bad("role_ports missing role %q", r.String())
		}
		seen := PortMask(0)
		for _, p := range ports {
			if p < 0 || p >= s.NumPorts {
				return bad("role %q uses port %d outside [0, %d)", r.String(), p, s.NumPorts)
			}
			if seen.Has(p) {
				return bad("role %q lists port %d twice", r.String(), p)
			}
			seen |= P(p)
		}
		// Only the FMA role may be absent (no FMA units pre-Haswell); its
		// presence must agree with the FMA latency.
		if len(ports) == 0 && r != RoleVecFMA {
			return bad("role %q has no ports", r.String())
		}
	}
	if (len(s.RolePorts[RoleVecFMA.String()]) == 0) != (s.FMALat == 0) {
		return bad("fma_latency %d disagrees with the %q port assignment %v (no FMA units ⇔ zero latency)",
			s.FMALat, RoleVecFMA.String(), s.RolePorts[RoleVecFMA.String()])
	}
	return nil
}
