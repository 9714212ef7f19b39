package isa

import (
	"fmt"

	"facile/internal/uarch"
	"facile/internal/x86"
)

// Uop is one unfused-domain µop.
type Uop struct {
	Role  uarch.Role
	Ports uarch.PortMask
	// RecTP is the number of cycles the µop occupies its execution port
	// (> 1 only for non-pipelined units such as dividers). The analytical
	// model deliberately ignores this (idealizing assumption); the reference
	// simulator honors it.
	RecTP int
}

// Desc describes the microarchitectural behavior of one instruction on one
// microarchitecture.
type Desc struct {
	// FusedUops is the number of fused-domain µops produced by decoding
	// (after micro-fusion, before unlamination).
	FusedUops int
	// IssueUops is the number of µops the renamer issues (after
	// unlamination of indexed micro-fused µops, where applicable).
	IssueUops int
	// Uops are the unfused-domain µops that are dispatched to execution
	// ports. Eliminated instructions and NOPs have none.
	Uops []Uop
	// Latency is the data-source to result latency of the compute part.
	// For instructions with a memory source, the load latency
	// (Config.LoadLat) is added on paths that start at address registers.
	Latency int
	// Eliminated: handled at rename (zeroing idiom or eliminated move);
	// Latency is 0 and Uops is empty.
	Eliminated bool
	// Complex: must be decoded by the complex decoder.
	Complex bool
	// Unlaminated: the renamer splits the micro-fused µops of this
	// instruction (IssueUops == len(Uops) > FusedUops).
	Unlaminated bool
	// MacroFusible: may macro-fuse with a suitable following conditional jump.
	MacroFusible bool
	// FusibleJCC: a conditional jump that can be the second half of a pair.
	FusibleJCC bool
	Load       bool
	Store      bool
}

// AvailSimple returns the number of simple decoders of a decoding unit
// with numDecoders decoders that can still be used in the same cycle after
// this instruction occupies its complex decoder (the uops.info
// "nAvailableSimpleDecoders" attribute): every one for a single-µop
// instruction, one fewer per fused-domain µop beyond the second.
func (d *Desc) AvailSimple(numDecoders int) int {
	if !d.Complex {
		return numDecoders - 1
	}
	return max(0, numDecoders-1-max(0, d.FusedUops-2))
}

// TotalRecTP returns the sum of port-occupancy cycles of the µops (used by
// the simulator's divider model; 0 for instructions without µops).
func (d *Desc) TotalRecTP() int {
	t := 0
	for _, u := range d.Uops {
		t += u.RecTP
	}
	return t
}

// ErrUnsupported is returned for instructions the target microarchitecture
// cannot execute (e.g. FMA on Sandy Bridge).
type ErrUnsupported struct {
	Op   x86.Op
	Arch string
}

func (e *ErrUnsupported) Error() string {
	return fmt.Sprintf("isa: %v not supported on %s", e.Op, e.Arch)
}

// DescReads lists the uarch.Config fields, by spec key, that Lookup and
// CanMacroFuse read, and so SameDescs compares.
var DescReads = []string{
	"gen", "role_ports", "fp_add_latency", "fp_mul_latency", "fma_latency",
	"move_elim_gpr", "move_elim_vec", "unlaminate_indexed", "macro_fusion", "fuse_with_mem",
}

// SameDescs reports whether Lookup and CanMacroFuse give every instruction
// the same descriptor and the same fusion on a as on b: whether the two
// configurations agree on every field those functions read. The name is
// read only for the text of an ErrUnsupported, so configurations that
// differ in their names alone give the same descriptors to every
// instruction that has one on either.
func SameDescs(a, b *uarch.Config) bool {
	// Keep in step with DescReads.
	return a.Gen == b.Gen && a.RolePorts == b.RolePorts &&
		a.FPAddLat == b.FPAddLat && a.FPMulLat == b.FPMulLat && a.FMALat == b.FMALat &&
		a.MoveElimGPR == b.MoveElimGPR && a.MoveElimVec == b.MoveElimVec &&
		a.UnlaminateIndexed == b.UnlaminateIndexed &&
		a.MacroFusion == b.MacroFusion && a.FuseWithMem == b.FuseWithMem
}

// Lookup fills d with the descriptor of inst on cfg, given the
// instruction's effects, and appends its µops to uops. d.Uops is the
// appended part, capacity-limited so that descriptors carved from one
// buffer never share µops. It returns the extended buffer; on error the
// buffer is returned unextended. Of cfg it reads only the fields SameDescs
// compares, and the name for the error text.
func Lookup(cfg *uarch.Config, inst *x86.Inst, eff *x86.Effects, d *Desc, uops []Uop) ([]Uop, error) {
	*d = Desc{Load: eff.Load, Store: eff.Store}

	// NOP: one fused-domain µop that occupies no execution port.
	if inst.Op == x86.NOP {
		d.FusedUops = 1
		d.IssueUops = 1
		return uops, nil
	}

	// Zeroing idioms are handled at rename.
	if inst.IsZeroIdiom() {
		d.FusedUops = 1
		d.IssueUops = 1
		d.Eliminated = true
		return uops, nil
	}

	lo := len(uops)
	mk := func(role uarch.Role, recTP int) Uop {
		return Uop{Role: role, Ports: cfg.PortsFor(role), RecTP: recTP}
	}

	// Register-to-register moves may be eliminated at rename.
	if inst.IsRegMove() {
		d.FusedUops = 1
		d.IssueUops = 1
		elim := cfg.MoveElimGPR
		role := uarch.RoleALU
		if inst.Op.IsVector() {
			elim = cfg.MoveElimVec
			role = uarch.RoleVecMove
		}
		if elim {
			d.Eliminated = true
			return uops, nil
		}
		uops = append(uops, mk(role, 1))
		d.Uops = uops[lo:len(uops):len(uops)]
		d.Latency = 1
		return uops, nil
	}

	// Assemble the unfused-domain µop list: load first, compute, then the
	// store pair.
	if eff.Load {
		uops = append(uops, mk(uarch.RoleLoad, 1))
	}
	computeLo := len(uops)
	uops, lat, err := computeUops(cfg, inst, uops)
	if err != nil {
		return uops[:lo], err
	}
	d.Latency = lat
	nc := len(uops) - computeLo
	if eff.Store {
		uops = append(uops, mk(uarch.RoleStoreAddr, 1), mk(uarch.RoleStoreData, 1))
	}
	if len(uops) > lo {
		d.Uops = uops[lo:len(uops):len(uops)]
	}

	// Fused-domain µop count (micro-fusion).
	switch {
	case !eff.Load && !eff.Store:
		d.FusedUops = max(1, nc)
	case eff.Load && !eff.Store:
		// The load micro-fuses with the first compute µop.
		d.FusedUops = max(1, nc)
	case !eff.Load && eff.Store:
		// Store-address and store-data micro-fuse.
		d.FusedUops = nc + 1
	default: // load && store (RMW)
		d.FusedUops = max(1, nc) + 1
	}

	// Unlamination: micro-fused µops with indexed addressing are split by
	// the renamer on the affected microarchitectures.
	d.IssueUops = d.FusedUops
	if inst.IsMem && inst.Mem.IsIndexed() && cfg.UnlaminateIndexed &&
		d.FusedUops < len(d.Uops) {
		d.IssueUops = len(d.Uops)
		d.Unlaminated = true
	}

	// Decoder constraints.
	d.Complex = d.FusedUops > 1

	// Macro-fusion.
	d.MacroFusible = macroFusibleFirst(cfg, inst, eff)
	d.FusibleJCC = inst.Op == x86.JCC

	return uops, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
