package uarch

// Gen orders the microarchitecture generations chronologically, so that
// instruction-table code can express ranges like "SKL and later".
type Gen int

const (
	GenSNB Gen = 1 + iota
	GenIVB
	GenHSW
	GenBDW
	GenSKL
	GenCLX
	GenICL
	GenTGL
	GenRKL
)

// Config describes one microarchitecture. It is also the spec format: the
// JSON tags below are the keys of a spec document (specs/*.json), Gen
// travels as its name ("SKL") and RolePorts as an object of port lists (see
// RoleTable). Registry.Load and Registry.Derive decode documents straight
// onto a Config, and Config.JSON writes one back out.
type Config struct {
	Name     string `json:"name"`                // short name, e.g. "SKL"
	FullName string `json:"full_name,omitempty"` // e.g. "Skylake"
	CPU      string `json:"cpu,omitempty"`       // the evaluation CPU from the paper's Table 1
	Released int    `json:"released,omitempty"`
	Gen      Gen    `json:"gen"`

	// Front end.
	PredecWidth  int  `json:"predec_width"`      // instructions predecoded per cycle
	NumDecoders  int  `json:"num_decoders"`      // total decoders (first one is the complex decoder)
	IQSize       int  `json:"iq_size"`           // predecoded instruction queue entries
	DSBWidth     int  `json:"dsb_width"`         // µops per cycle deliverable from the DSB
	IDQSize      int  `json:"idq_size"`          // instruction decode queue capacity (µops); also LSD window
	LSDEnabled   bool `json:"lsd_enabled"`       // loop stream detector active (SKL150 erratum disables it)
	LSDUnrollTgt int  `json:"lsd_unroll_target"` // LSD unrolls small loops up to ~this many µops (0 = no unrolling)
	JCCErratum   bool `json:"jcc_erratum"`       // JCC-erratum mitigation active (SKL-derived cores)

	// Back end.
	IssueWidth  int `json:"issue_width"` // µops issued per cycle by the renamer
	RetireWidth int `json:"retire_width"`
	ROBSize     int `json:"rob_size"`
	SchedSize   int `json:"sched_size"` // scheduler (reservation station) entries
	NumPorts    int `json:"num_ports"`

	// Fusion and elimination behavior.
	MacroFusion          bool `json:"macro_fusion"`            // macro-fusion supported at all
	FusibleOnLastDecoder bool `json:"fusible_on_last_decoder"` // a macro-fusible instr may decode on the last decoder
	FuseWithMem          bool `json:"fuse_with_mem"`           // first instruction of a fused pair may have a memory operand
	MoveElimGPR          bool `json:"move_elim_gpr"`
	MoveElimVec          bool `json:"move_elim_vec"`
	UnlaminateIndexed    bool `json:"unlaminate_indexed"` // micro-fused µops with indexed addressing unlaminate at issue

	// Key latencies (cycles).
	LoadLat  int `json:"load_latency"` // L1 load-to-use
	FPAddLat int `json:"fp_add_latency"`
	FPMulLat int `json:"fp_mul_latency"`
	FMALat   int `json:"fma_latency"`

	// RolePorts maps each µop role to the ports it may dispatch to.
	RolePorts RoleTable `json:"role_ports"`
}

// PortsFor returns the port mask for a role.
func (c *Config) PortsFor(r Role) PortMask { return c.RolePorts[r] }

// LSDUnroll returns the number of times the LSD unrolls a loop body of
// nUops fused-domain µops (paper §4.6). The LSD doubles the loop body until
// it reaches the unroll target, while the unrolled copy still fits in the
// IDQ. Microarchitectures without LSD unrolling return 1.
func (c *Config) LSDUnroll(nUops int) int {
	if nUops <= 0 || c.LSDUnrollTgt == 0 {
		return 1
	}
	u := 1
	for nUops*u < c.LSDUnrollTgt && nUops*u*2 <= c.IDQSize {
		u *= 2
	}
	return u
}

// The package-level lookup API is backed by the process-wide default
// Registry, which is built from the embedded declarative spec files in
// specs/ (see Config and Registry). Additional microarchitectures — loaded
// spec files, derived variants — registered on Default() become visible
// here as well.

// All returns the registered microarchitectures, the nine embedded Table 1
// configs first in Table 1 order (newest first), then any runtime-registered
// ones in registration order.
func All() []*Config { return Default().All() }

// Chronological returns the registered microarchitectures oldest first.
func Chronological() []*Config { return Default().Chronological() }

// ByName looks up a microarchitecture by its short name in the default
// registry: a case-insensitive, O(1) map lookup. The error for an unknown
// name lists the valid ones.
func ByName(name string) (*Config, error) { return Default().ByName(name) }

// MustByName is ByName for static names known to exist (the nine Table 1
// abbreviations); it panics on lookup failure.
func MustByName(name string) *Config {
	cfg, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return cfg
}
