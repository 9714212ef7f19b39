package uarch

import "testing"

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 9 {
		t.Fatalf("got %d configs, want 9 (Table 1)", len(all))
	}
	seen := map[string]bool{}
	for _, cfg := range all {
		if seen[cfg.Name] {
			t.Fatalf("duplicate config %s", cfg.Name)
		}
		seen[cfg.Name] = true
		if cfg.FullName == "" || cfg.CPU == "" || cfg.Released == 0 || cfg.Gen == 0 {
			t.Errorf("%s: incomplete Table 1 fields: %+v", cfg.Name, cfg)
		}
		if cfg.IssueWidth < 4 || cfg.NumDecoders < 4 || cfg.PredecWidth != 5 {
			t.Errorf("%s: implausible front-end widths", cfg.Name)
		}
		if cfg.IDQSize <= 0 || cfg.ROBSize <= 0 || cfg.SchedSize <= 0 || cfg.IQSize <= 0 {
			t.Errorf("%s: missing buffer sizes", cfg.Name)
		}
		// Every role except FMA (absent pre-HSW) must map to some port.
		for r := Role(0); r < NumRoles; r++ {
			if r == RoleVecFMA && cfg.Gen < GenHSW {
				continue
			}
			if cfg.RolePorts[r] == 0 {
				t.Errorf("%s: role %v has no ports", cfg.Name, r)
			}
		}
		// Port masks must fit within NumPorts.
		for r := Role(0); r < NumRoles; r++ {
			for _, p := range cfg.RolePorts[r].Ports() {
				if p >= cfg.NumPorts {
					t.Errorf("%s: role %v uses port %d >= NumPorts %d",
						cfg.Name, r, p, cfg.NumPorts)
				}
			}
		}
	}
}

func TestChronologicalOrder(t *testing.T) {
	chron := Chronological()
	for i := 1; i < len(chron); i++ {
		if chron[i-1].Gen >= chron[i].Gen {
			t.Fatalf("not chronological at %d: %s >= %s",
				i, chron[i-1].Name, chron[i].Name)
		}
	}
	if chron[0].Name != "SNB" || chron[len(chron)-1].Name != "RKL" {
		t.Fatalf("unexpected order: %s .. %s", chron[0].Name, chron[len(chron)-1].Name)
	}
}

func TestByName(t *testing.T) {
	cfg, err := ByName("SKL")
	if err != nil || cfg.FullName != "Skylake" {
		t.Fatalf("cfg=%v err=%v", cfg, err)
	}
	if _, err := ByName("P4"); err == nil {
		t.Fatal("unknown name must error")
	}
}

func TestLSDUnroll(t *testing.T) {
	// SNB does not unroll.
	if u := MustByName("SNB").LSDUnroll(3); u != 1 {
		t.Fatalf("SNB unroll = %d", u)
	}
	// HSW: 3 µops, target 28, IDQ 56: 3·16 = 48 <= 56 and >= 28.
	if u := MustByName("HSW").LSDUnroll(3); u != 16 {
		t.Fatalf("HSW unroll(3) = %d, want 16", u)
	}
	// Large loops are not unrolled.
	if u := MustByName("HSW").LSDUnroll(40); u != 1 {
		t.Fatalf("HSW unroll(40) = %d, want 1", u)
	}
	// The unrolled copy must always fit in the IDQ.
	for _, cfg := range All() {
		for n := 1; n <= cfg.IDQSize; n++ {
			u := cfg.LSDUnroll(n)
			if u < 1 || n*u > cfg.IDQSize {
				t.Fatalf("%s: unroll(%d) = %d exceeds IDQ %d", cfg.Name, n, u, cfg.IDQSize)
			}
		}
	}
}

func TestPortMaskHelpers(t *testing.T) {
	m := P(0, 1, 5)
	if m.Count() != 3 || !m.Has(5) || m.Has(2) {
		t.Fatalf("mask %v", m)
	}
	if m.String() != "p015" {
		t.Fatalf("String = %q", m.String())
	}
	if !P(0, 1).SubsetOf(m) || m.SubsetOf(P(0, 1)) {
		t.Fatal("SubsetOf wrong")
	}
	u := P(0).Union(P(6))
	if u != P(0, 6) {
		t.Fatalf("union %v", u)
	}
	ports := P(2, 3, 7).Ports()
	if len(ports) != 3 || ports[0] != 2 || ports[2] != 7 {
		t.Fatalf("ports %v", ports)
	}
}

func TestGenerationalDifferencesExist(t *testing.T) {
	// The properties the evaluation depends on.
	if MustByName("SKL").LSDEnabled || MustByName("CLX").LSDEnabled {
		t.Fatal("SKL/CLX must have the LSD disabled (SKL150)")
	}
	if !MustByName("HSW").LSDEnabled || !MustByName("RKL").LSDEnabled {
		t.Fatal("HSW/RKL must have the LSD enabled")
	}
	if !MustByName("SKL").JCCErratum || !MustByName("CLX").JCCErratum || MustByName("RKL").JCCErratum {
		t.Fatal("JCC erratum applies to SKL/CLX only")
	}
	if MustByName("ICL").IssueWidth <= MustByName("SKL").IssueWidth {
		t.Fatal("ICL must be wider than SKL")
	}
	if MustByName("ICL").NumDecoders <= MustByName("SKL").NumDecoders {
		t.Fatal("ICL must have more decoders")
	}
	if MustByName("SNB").MoveElimGPR || !MustByName("IVB").MoveElimGPR || MustByName("ICL").MoveElimGPR {
		t.Fatal("GPR move-elimination generations wrong")
	}
}

// TestRegistriesIndependent: every registry holds its own copies of the
// built-in Configs, although the spec files are decoded once per process:
// writing to one registry's Config changes no other registry's.
func TestRegistriesIndependent(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	for _, name := range a.Names() {
		ca, _ := a.ByName(name)
		cb, _ := b.ByName(name)
		if ca == cb {
			t.Fatalf("%s: two registries share one Config", name)
		}
		want := *cb
		ca.IssueWidth++
		ca.RolePorts[RoleALU] = 0
		if *cb != want {
			t.Fatalf("%s: writing one registry's Config changed another's", name)
		}
		if c, _ := NewRegistry().ByName(name); *c != want {
			t.Fatalf("%s: writing one registry's Config changed a new registry's", name)
		}
	}
}
