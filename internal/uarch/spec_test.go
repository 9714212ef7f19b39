package uarch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestSpecRoundTrip: Config → JSON → Config must be the identity for every
// registered microarchitecture, and the JSON must load back under a new
// name to the same config.
func TestSpecRoundTrip(t *testing.T) {
	for _, cfg := range All() {
		data, err := cfg.JSON()
		if err != nil {
			t.Fatalf("%s: marshal: %v", cfg.Name, err)
		}
		var back Config
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(&back, cfg) {
			t.Errorf("%s: round trip diverges:\n got: %+v\nwant: %+v", cfg.Name, &back, cfg)
		}
		renamed := bytes.Replace(data, []byte(`"name": "`+cfg.Name+`"`), []byte(`"name": "Copy"`), 1)
		loaded, err := NewRegistry().Load(renamed)
		if err != nil {
			t.Fatalf("%s: load: %v", cfg.Name, err)
		}
		want := *cfg
		want.Name = "Copy"
		if !reflect.DeepEqual(loaded, &want) {
			t.Errorf("%s: loaded copy diverges:\n got: %+v\nwant: %+v", cfg.Name, loaded, &want)
		}
	}
}

// TestSpecJSONBracketsInStrings: the port-list collapsing in Config.JSON
// must not touch bracketed text in string fields.
func TestSpecJSONBracketsInStrings(t *testing.T) {
	c := validConfig()
	c.Name = "Bracketed"
	c.FullName = "test [1, 2] machine"
	data, err := c.JSON()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := NewRegistry().Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.FullName != c.FullName {
		t.Fatalf("FullName corrupted by rendering: %q", parsed.FullName)
	}
}

func TestRegistryCapacity(t *testing.T) {
	r := NewRegistry()
	for i := r.Len(); i < MaxEntries; i++ {
		if _, err := r.Derive(fmt.Sprintf("C%d", i), "SKL", nil); err != nil {
			t.Fatal(err)
		}
	}
	_, err := r.Derive("overflow", "SKL", nil)
	if !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("register past cap = %v, want ErrRegistryFull", err)
	}
	// Existing entries still resolve.
	if _, err := r.ByName("C42"); err != nil {
		t.Fatal(err)
	}
}

// validConfig returns a fresh, valid config to mutate per rejection case.
func validConfig() *Config {
	c := *MustByName("SKL")
	return &c
}

// sklDoc returns SKL's spec document under the name "X", edited by edit
// (a generic JSON object), for the rejection cases a Config cannot express.
func sklDoc(t *testing.T, edit func(doc map[string]any)) []byte {
	t.Helper()
	data, err := MustByName("SKL").JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc["name"] = "X"
	edit(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func rolePorts(doc map[string]any) map[string]any { return doc["role_ports"].(map[string]any) }

func TestSpecValidationRejections(t *testing.T) {
	// Cases a Config can express: Validate rejects them, and so does
	// registration.
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantSub string
	}{
		{"missing name", func(c *Config) { c.Name = "" }, "missing \"name\""},
		{"name with space", func(c *Config) { c.Name = "my arch" }, "whitespace"},
		{"missing gen", func(c *Config) { c.Gen = 0 }, "missing \"gen\""},
		{"zero issue width", func(c *Config) { c.IssueWidth = 0 }, "issue_width must be positive"},
		{"negative idq", func(c *Config) { c.IDQSize = -4 }, "idq_size must be positive"},
		{"too many ports", func(c *Config) { c.NumPorts = 17 }, "16-port mask"},
		{"negative latency", func(c *Config) { c.LoadLat = -1 }, "load_latency"},
		{"absurd decoder count", func(c *Config) { c.NumDecoders = 1 << 30 }, "num_decoders must be at most 4096"},
		{"absurd latency", func(c *Config) { c.LoadLat = MaxSpecValue + 1 }, "load_latency must be at most"},
		{"lsd window exceeds idq", func(c *Config) { c.LSDUnrollTgt = c.IDQSize + 1 },
			"exceeds idq_size"},
		{"port out of range", func(c *Config) { c.RolePorts[RoleALU] = P(0, c.NumPorts) },
			"outside [0, 8)"},
		{"empty non-fma role", func(c *Config) { c.RolePorts[RoleLoad] = 0 },
			"role \"load\" has no ports"},
		{"fma ports without latency", func(c *Config) { c.FMALat = 0 },
			"fma_latency 0 disagrees"},
		{"fma latency without ports", func(c *Config) { c.RolePorts[RoleVecFMA] = 0 },
			"disagrees"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := validConfig()
			tc.mutate(c)
			err := c.Validate()
			if err == nil {
				t.Fatalf("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
			// The same rejection must surface through registration.
			if _, rerr := NewRegistry().Register(c); rerr == nil {
				t.Fatal("Register accepted an invalid config")
			}
		})
	}

	// Cases only a document can express: Load rejects them, some while
	// decoding.
	docs := []struct {
		name    string
		edit    func(doc map[string]any)
		wantSub string
	}{
		{"unknown gen", func(d map[string]any) { d["gen"] = "P4" }, "unknown generation"},
		{"unresolved base", func(d map[string]any) { d["base"] = "P4" }, "unknown microarchitecture \"P4\""},
		{"missing role", func(d map[string]any) { delete(rolePorts(d), "load") },
			"missing role \"load\""},
		{"unknown role", func(d map[string]any) { rolePorts(d)["warp"] = []int{0} },
			"unknown role \"warp\""},
		{"negative port", func(d map[string]any) { rolePorts(d)["alu"] = []int{-1} },
			"outside [0, 16)"},
		{"duplicate port", func(d map[string]any) { rolePorts(d)["alu"] = []int{0, 0} },
			"lists port 0 twice"},
		{"float width", func(d map[string]any) { d["issue_width"] = json.Number("4.0") },
			"uarch: invalid spec: issue_width: want an integer, got number 4.0"},
		{"string flag", func(d map[string]any) { d["lsd_enabled"] = "yes" },
			"uarch: invalid spec: lsd_enabled: want a boolean, got string"},
		{"numeric gen", func(d map[string]any) { d["gen"] = 5 },
			"uarch: invalid spec: gen: want a string, got number"},
		{"string port list", func(d map[string]any) { rolePorts(d)["alu"] = "x" },
			"uarch: invalid spec: role_ports.alu: want an array, got string"},
		{"fractional port", func(d map[string]any) { rolePorts(d)["alu"] = []any{json.Number("1.5")} },
			"uarch: invalid spec: role_ports.alu: want an integer, got number 1.5"},
		{"string role table", func(d map[string]any) { d["role_ports"] = "x" },
			"uarch: invalid spec: role_ports: want an object, got string"},
	}
	for _, tc := range docs {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewRegistry().Load(sklDoc(t, tc.edit))
			if err == nil {
				t.Fatalf("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}

	// A document that is no JSON object, as a full spec and as an overlay.
	for _, doc := range []string{`[1]`, `"SKL"`, `4`} {
		t.Run("not an object "+doc, func(t *testing.T) {
			r := NewRegistry()
			_, errLoad := r.Load([]byte(doc))
			_, errDerive := r.DeriveConfig("X", "SKL", []byte(doc))
			for _, err := range []error{errLoad, errDerive} {
				if err == nil || !strings.HasPrefix(err.Error(), "uarch: spec must be a JSON object, got ") {
					t.Fatalf("error %v, want one saying the spec must be a JSON object", err)
				}
			}
		})
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := NewRegistry().Load([]byte(`{"name":"X","gen":"SKL","lsd_enable":true}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestRegistryDuplicateName(t *testing.T) {
	r := NewRegistry()
	c := validConfig()
	c.Name = "Custom1"
	if _, err := r.Register(c); err != nil {
		t.Fatal(err)
	}
	// Exact and case-folded duplicates must both be rejected, and be
	// distinguishable from validation failures.
	for _, dup := range []string{"Custom1", "CUSTOM1", "custom1", "skl"} {
		d := validConfig()
		d.Name = dup
		_, err := r.Register(d)
		if !errors.Is(err, ErrDuplicate) {
			t.Fatalf("Register(%q) = %v, want ErrDuplicate", dup, err)
		}
	}
}

func TestRegistryCaseInsensitiveLookup(t *testing.T) {
	for _, name := range []string{"SKL", "skl", "Skl", "rKL"} {
		cfg, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if !strings.EqualFold(cfg.Name, name) {
			t.Fatalf("ByName(%q) = %s", name, cfg.Name)
		}
	}
	_, err := ByName("P4")
	if err == nil {
		t.Fatal("unknown name must error")
	}
	// The error must still list the valid names.
	for _, want := range []string{"SKL", "RKL", "SNB"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list %s", err, want)
		}
	}
}

func TestRegistryLoadOverlay(t *testing.T) {
	r := NewRegistry()
	cfg, err := r.Load([]byte(`{"name": "SKL-LSD", "base": "SKL", "lsd_enabled": true}`))
	if err != nil {
		t.Fatal(err)
	}
	skl := MustByName("SKL")
	if !cfg.LSDEnabled {
		t.Fatal("overlay did not apply")
	}
	if cfg.CPU != "" || cfg.Released != 0 {
		t.Fatalf("variant inherited the base CPU %q / release year %d", cfg.CPU, cfg.Released)
	}
	// Everything not overridden must match the base.
	want := *skl
	want.Name, want.FullName, want.CPU, want.Released = "SKL-LSD", skl.FullName, "", 0
	want.LSDEnabled = true
	if !reflect.DeepEqual(cfg, &want) {
		t.Errorf("overlay result diverges:\n got: %+v\nwant: %+v", cfg, &want)
	}
	// Role-port overlays merge into the base map instead of replacing it.
	cfg2, err := r.Load([]byte(`{"name": "SKL-1LD", "base": "SKL", "role_ports": {"load": [2]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg2.PortsFor(RoleLoad); got != P(2) {
		t.Fatalf("load ports = %v, want p2", got)
	}
	if got := cfg2.PortsFor(RoleALU); got != skl.PortsFor(RoleALU) {
		t.Fatalf("alu ports changed by unrelated overlay: %v", got)
	}
	// The base in the same registry must be untouched.
	base, _ := r.ByName("SKL")
	if base.LSDEnabled || base.PortsFor(RoleLoad) != P(2, 3) {
		t.Fatal("overlay mutated its base")
	}

	if _, err := r.Load([]byte(`{"name": "X", "base": "P4"}`)); err == nil {
		t.Fatal("unknown base accepted")
	}
	if _, err := r.Load([]byte(`{"base": "SKL"}`)); err == nil {
		t.Fatal("overlay without a name accepted")
	}
}

func TestRegistryDerive(t *testing.T) {
	r := NewRegistry()
	cfg, err := r.Derive("ICL-4W", "ICL", []byte(`{"issue_width": 4, "retire_width": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.IssueWidth != 4 || cfg.RetireWidth != 4 {
		t.Fatalf("derive did not apply: %+v", cfg)
	}
	if cfg.Gen != GenICL || cfg.NumPorts != 10 {
		t.Fatal("derive lost base fields")
	}
	if _, err := r.Derive("X", "ICL", []byte(`{"base": "SKL"}`)); err == nil {
		t.Fatal("derive overlay with base accepted")
	}
	if _, err := r.Derive("Y", "ICL", []byte(`{"issue_width": 0}`)); err == nil {
		t.Fatal("derive result skipped validation")
	}
	// A derive may rename itself via the overlay? No: the name argument wins.
	cfg2, err := r.Derive("Z", "ICL", []byte(`{"name": "ignored"}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.Name != "Z" {
		t.Fatalf("derive name = %q, want Z", cfg2.Name)
	}
}

// TestRegistryConcurrentRegisterLookup races Register against ByName/All
// under -race: registration must never tear a lookup.
func TestRegistryConcurrentRegisterLookup(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.ByName("SKL"); err != nil {
					t.Error(err)
					return
				}
				for _, cfg := range r.All() {
					_ = cfg.Name
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if _, err := r.Derive("V"+string(rune('A'+i%26))+string(rune('0'+i/26)), "SKL",
			[]byte(`{"lsd_enabled": true}`)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if r.Len() != 9+50 {
		t.Fatalf("Len = %d, want 59", r.Len())
	}
}
