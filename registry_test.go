package facile

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var testBlock, _ = hex.DecodeString("4801d8480fafc3") // add rax,rbx; imul rax,rbx

func TestArchInfoParameters(t *testing.T) {
	infos := ArchInfos()
	if len(infos) < 9 {
		t.Fatalf("got %d infos, want >= 9", len(infos))
	}
	byName := make(map[string]ArchInfo)
	for _, info := range infos {
		byName[info.Name] = info
	}
	skl := byName["SKL"]
	if skl.Gen != "SKL" || skl.IssueWidth != 4 || skl.IDQSize != 64 ||
		skl.LSDEnabled || skl.NumPorts != 8 {
		t.Fatalf("SKL info misses key parameters: %+v", skl)
	}
	icl := byName["ICL"]
	if icl.Gen != "ICL" || icl.IssueWidth != 5 || !icl.LSDEnabled || icl.NumPorts != 10 {
		t.Fatalf("ICL info misses key parameters: %+v", icl)
	}
}

func TestRegisterArchVariant(t *testing.T) {
	reg := NewArchRegistry()
	info, err := reg.Derive("SKL-LSD-t1", "SKL", []byte(`{"lsd_enabled": true}`))
	if err != nil {
		t.Fatal(err)
	}
	if !info.LSDEnabled || info.Gen != "SKL" || info.CPU != "" {
		t.Fatalf("variant info wrong: %+v", info)
	}
	if _, err := reg.Derive("SKL-LSD-t1", "SKL", nil); !errors.Is(err, ErrDuplicateArch) {
		t.Fatalf("duplicate register = %v, want ErrDuplicateArch", err)
	}
	// The variant's spec is exportable and recreates it elsewhere.
	spec, err := reg.Spec("skl-lsd-t1")
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewArchRegistry()
	info2, err := reg2.LoadSpec(spec)
	if err != nil {
		t.Fatalf("re-loading exported spec: %v", err)
	}
	if info2 != info {
		t.Fatalf("spec round trip through a second registry diverges:\n got %+v\nwant %+v", info2, info)
	}
}

// TestBuiltinSpecExportMatchesFile: the exported spec of each built-in is
// its embedded spec file byte for byte (less the file's final newline).
func TestBuiltinSpecExportMatchesFile(t *testing.T) {
	reg := NewArchRegistry()
	names := reg.Archs()
	if len(names) != 9 {
		t.Fatalf("fresh registry has %d arches, want the nine built-ins", len(names))
	}
	for _, name := range names {
		file, err := os.ReadFile(filepath.Join("internal", "uarch", "specs", strings.ToLower(name)+".json"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := reg.Spec(name)
		if err != nil {
			t.Fatal(err)
		}
		if want := strings.TrimSuffix(string(file), "\n"); string(got) != want {
			t.Errorf("%s: exported spec differs from its file:\n%s\nwant\n%s", name, got, want)
		}
	}
}

// TestEngineServesRegistryDynamically: an arch registered after engine
// construction must be predictable without rebuilding the engine, and warm
// queries must be cache hits.
func TestEngineServesRegistryDynamically(t *testing.T) {
	reg := NewArchRegistry()
	e, err := NewEngine(EngineConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := predictT(e, testBlock, "SKL-W6", Loop); err == nil {
		t.Fatal("unregistered arch predicted")
	}
	if _, err := reg.Derive("SKL-W6", "SKL", []byte(`{"issue_width": 6, "retire_width": 6}`)); err != nil {
		t.Fatal(err)
	}
	if !e.HasArch("skl-w6") {
		t.Fatal("engine does not see the new arch")
	}
	p1, err := predictT(e, testBlock, "SKL-W6", Loop)
	if err != nil {
		t.Fatalf("predicting on a runtime-registered arch: %v", err)
	}
	if p1.Arch != "SKL-W6" {
		t.Fatalf("Arch = %q, want canonical SKL-W6", p1.Arch)
	}
	before := e.Stats()
	p2, err := predictT(e, testBlock, "skl-w6", Loop) // case-folded: same cache entry
	if err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("custom-arch repeat query was not a warm hit: before %+v after %+v", before, after)
	}
	if p2.CyclesPerIteration != p1.CyclesPerIteration || p2.Arch != "SKL-W6" {
		t.Fatalf("cached prediction differs: %+v vs %+v", p2, p1)
	}
	// The engine's arch list includes the registration.
	found := false
	for _, a := range e.Archs() {
		if a == "SKL-W6" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Archs() = %v misses SKL-W6", e.Archs())
	}
}

// TestEngineRegistryIsolation: same-named arches in two registries must not
// share cache entries or configurations.
func TestEngineRegistryIsolation(t *testing.T) {
	regA, regB := NewArchRegistry(), NewArchRegistry()
	// Same name, different machines: A's X is SKL-like, B's X single-ported.
	if _, err := regA.Derive("X", "SKL", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := regB.Derive("X", "SKL", []byte(`{"role_ports": {"alu": [0], "mul": [1]}}`)); err != nil {
		t.Fatal(err)
	}
	eA, err := NewEngine(EngineConfig{Registry: regA})
	if err != nil {
		t.Fatal(err)
	}
	eB, err := NewEngine(EngineConfig{Registry: regB})
	if err != nil {
		t.Fatal(err)
	}
	// Four independent adds: port-bound, so the single-ported X differs.
	portsBlock, _ := hex.DecodeString("4801d84801d94801da4801de")
	pA, err := predictT(eA, portsBlock, "X", Loop)
	if err != nil {
		t.Fatal(err)
	}
	pB, err := predictT(eB, portsBlock, "X", Loop)
	if err != nil {
		t.Fatal(err)
	}
	if pA.CyclesPerIteration == pB.CyclesPerIteration {
		t.Fatalf("two different machines named X predict identically (%.2f); registry scoping is broken",
			pA.CyclesPerIteration)
	}
	ref, _ := predictT(eA, portsBlock, "SKL", Loop)
	if pA.CyclesPerIteration != ref.CyclesPerIteration {
		t.Fatalf("A's X (= SKL copy) predicts %.2f, SKL %.2f", pA.CyclesPerIteration, ref.CyclesPerIteration)
	}
}

// TestEngineRestricted: a fixed arch set ignores later registrations and
// says so usefully.
func TestEngineRestricted(t *testing.T) {
	reg := NewArchRegistry()
	e, err := NewEngine(EngineConfig{Registry: reg, Archs: []string{"skl", "RKL"}})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Restricted() {
		t.Fatal("engine should report Restricted")
	}
	// Canonicalized configured order.
	if got := fmt.Sprint(e.Archs()); got != "[SKL RKL]" {
		t.Fatalf("Archs() = %s", got)
	}
	if _, err := predictT(e, testBlock, "SKL", Loop); err != nil {
		t.Fatal(err)
	}
	_, err = predictT(e, testBlock, "HSW", Loop)
	if err == nil || !strings.Contains(err.Error(), "not configured") {
		t.Fatalf("out-of-set arch error = %v", err)
	}
	if _, err := reg.Derive("NEW", "SKL", nil); err != nil {
		t.Fatal(err)
	}
	if e.HasArch("NEW") {
		t.Fatal("restricted engine must not extend to later registrations")
	}
	if _, err := NewEngine(EngineConfig{Archs: []string{"P4"}}); err == nil {
		t.Fatal("unknown restricted arch accepted at construction")
	}
}

// TestConcurrentRegisterPredict races runtime registration against
// prediction traffic on the same engine (run under -race).
func TestConcurrentRegisterPredict(t *testing.T) {
	reg := NewArchRegistry()
	e, err := NewEngine(EngineConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			archs := []string{"SKL", "RKL", "SNB", "ICL"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := predictT(e, testBlock, archs[(i+w)%len(archs)], Loop); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("RACE-%d", i)
		if _, err := reg.Derive(name, "SKL", []byte(`{"lsd_enabled": true}`)); err != nil {
			t.Fatal(err)
		}
		// Newly registered arches predict while others register.
		if _, err := predictT(e, testBlock, name, Loop); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestLoadSpecDirOrderIndependent: an overlay may sort before the full
// spec it is based on; the directory loader must resolve it anyway.
func TestLoadSpecDirOrderIndependent(t *testing.T) {
	dir := t.TempDir()
	// "a-variant.json" sorts before its base "z-base.json".
	if err := os.WriteFile(filepath.Join(dir, "a-variant.json"),
		[]byte(`{"name": "ZB-LSD", "base": "ZBASE", "lsd_enabled": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := NewArchRegistry().Spec("SKL")
	if err != nil {
		t.Fatal(err)
	}
	base = []byte(strings.Replace(string(base), `"SKL"`, `"ZBASE"`, 1)) // rename the copy
	if err := os.WriteFile(filepath.Join(dir, "z-base.json"), base, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewArchRegistry()
	infos, err := reg.LoadSpecDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("loaded %d specs, want 2: %+v", len(infos), infos)
	}
	if info, err := reg.Info("ZB-LSD"); err != nil || !info.LSDEnabled {
		t.Fatalf("variant not resolved: %+v, %v", info, err)
	}
	// A genuinely unresolvable base still fails, naming the stuck file.
	if err := os.WriteFile(filepath.Join(dir, "b-broken.json"),
		[]byte(`{"name": "B", "base": "NOWHERE"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = NewArchRegistry().LoadSpecDir(dir)
	if err == nil || !strings.Contains(err.Error(), "b-broken.json") {
		t.Fatalf("unresolvable base: err = %v", err)
	}
}

func TestPredictCaseInsensitiveArch(t *testing.T) {
	p, err := predictT(DefaultEngine(), testBlock, "skl", Loop)
	if err != nil {
		t.Fatal(err)
	}
	if p.Arch != "SKL" {
		t.Fatalf("Arch = %q, want canonical SKL", p.Arch)
	}
}
