package uarch

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// specFS embeds the declarative spec files of the nine Table 1
// microarchitectures. They are the source of truth: the registry that backs
// the package-level All/ByName/Chronological API is built from these files,
// and the parity gate at the repository root pins their predictions to the
// seed hardcoded tables they replaced.
//
//go:embed specs/*.json
var specFS embed.FS

// ErrDuplicate reports an attempt to register a microarchitecture under a
// name (case-insensitively) already taken in the same registry. Callers can
// match it with errors.Is to distinguish conflicts from validation failures.
var ErrDuplicate = errors.New("name already registered")

// ErrRegistryFull reports that a registry reached MaxEntries. Registered
// names are immutable and never evicted (prediction caches key on them), so
// the cap is what bounds a registry's memory against unbounded registration
// — e.g. a client looping POST /v1/archs with fresh names.
var ErrRegistryFull = errors.New("registry full")

// MaxEntries bounds the number of microarchitectures one Registry holds.
// Far above any real design-space sweep, it exists as a resource backstop,
// not a working limit.
const MaxEntries = 1024

// configVersions hands out process-unique version numbers for registered
// configs. Versions are unique across all registries, so a cache keyed by
// (name, version) can never confuse two registries' — or two successive —
// definitions of the same name.
var configVersions atomic.Uint64

// regEntry is one registered microarchitecture.
type regEntry struct {
	cfg *Config
	ver uint64
}

// Registry is a thread-safe collection of microarchitectures. Lookup by
// name is a case-insensitive O(1) map access. A name, once registered, is
// immutable: re-registration fails with ErrDuplicate, so a *Config obtained
// from a registry never changes underneath its users.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*regEntry // keyed by canonical name AND its lowercase form
	ordered []*Config            // registration order
}

// NewRegistry returns a registry pre-populated with the nine Table 1
// microarchitectures from the embedded spec files, newest first. Each
// registry holds its own copies of the Configs, which the files are
// decoded into once per process.
func NewRegistry() *Registry {
	r := &Registry{entries: make(map[string]*regEntry)}
	for _, c := range embedded() {
		if _, err := r.Register(&c); err != nil {
			panic(err)
		}
	}
	return r
}

// embedded returns the Configs of the embedded spec files in Table 1
// order, decoded on first use.
var embedded = sync.OnceValue(func() []Config {
	r := &Registry{entries: make(map[string]*regEntry)}
	if err := r.loadEmbedded(); err != nil {
		// The embedded specs ship with the binary and are gated by tests
		// and CI; failing to parse them is a build defect, not a runtime
		// condition.
		panic(err)
	}
	out := make([]Config, len(r.ordered))
	for i, c := range r.ordered {
		out[i] = *c
	}
	return out
})

// embeddedOrder lists the embedded spec files in Table 1 order (newest
// first), which becomes the registration order of every new registry.
var embeddedOrder = [...]string{"rkl", "tgl", "icl", "clx", "skl", "bdw", "hsw", "ivb", "snb"}

func (r *Registry) loadEmbedded() error {
	for _, name := range embeddedOrder {
		data, err := specFS.ReadFile("specs/" + name + ".json")
		if err != nil {
			return fmt.Errorf("uarch: embedded spec %s: %w", name, err)
		}
		if _, err := r.Load(data); err != nil {
			return fmt.Errorf("uarch: embedded spec %s: %w", name, err)
		}
	}
	return nil
}

// Register validates cfg and adds it to the registry, which takes
// ownership: the caller must not modify cfg afterwards. It fails with
// ErrDuplicate if the name is already taken (case-insensitively).
func (r *Registry) Register(cfg *Config) (*Config, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, taken := r.entries[strings.ToLower(cfg.Name)]; taken {
		return nil, fmt.Errorf("uarch: microarchitecture %q: %w", cfg.Name, ErrDuplicate)
	}
	if len(r.ordered) >= MaxEntries {
		return nil, fmt.Errorf("uarch: cannot register %q: %w (%d entries)", cfg.Name, ErrRegistryFull, MaxEntries)
	}
	ent := &regEntry{cfg: cfg, ver: configVersions.Add(1)}
	r.entries[strings.ToLower(cfg.Name)] = ent
	if canon := cfg.Name; canon != strings.ToLower(canon) {
		r.entries[canon] = ent
	}
	r.ordered = append(r.ordered, cfg)
	return cfg, nil
}

// Load parses a spec document and registers it. A full spec must name
// every role in role_ports. A spec that names a base microarchitecture is
// an overlay: it is decoded onto a copy of the base from this registry, so
// only overridden fields need to be present.
func (r *Registry) Load(data []byte) (*Config, error) {
	// Peek at the base, and at the roles the document names, before the
	// strict decode.
	var head struct {
		Base      string                     `json:"base"`
		RolePorts map[string]json.RawMessage `json:"role_ports"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, specError(err)
	}
	if head.Base != "" {
		cfg, _, err := r.overlay(head.Base, data)
		if err != nil {
			return nil, err
		}
		return r.Register(cfg)
	}
	cfg := new(Config)
	if _, err := decodeSpec(cfg, data); err != nil {
		return nil, err
	}
	// Only an overlay may leave roles to its base.
	if head.RolePorts == nil {
		return nil, fmt.Errorf("uarch: invalid spec %q: missing \"role_ports\"", cfg.Name)
	}
	for role := Role(0); role < NumRoles; role++ {
		if _, ok := head.RolePorts[role.String()]; !ok {
			return nil, fmt.Errorf("uarch: invalid spec %q: role_ports missing role %q", cfg.Name, role.String())
		}
	}
	return r.Register(cfg)
}

// overlay is the one path from a base to a variant: it copies the
// registered base, without its name (the overlay or the caller names the
// variant) and without its CPU and release year (a design point models no
// Table 1 CPU, unless the overlay sets its own), then decodes doc onto the
// copy. It returns the copy and doc's "base" field.
func (r *Registry) overlay(base string, doc []byte) (*Config, string, error) {
	b, err := r.ByName(base)
	if err != nil {
		return nil, "", fmt.Errorf("uarch: overlay base: %w", err)
	}
	cfg := *b
	cfg.Name, cfg.CPU, cfg.Released = "", "", 0
	if len(doc) == 0 {
		return &cfg, "", nil
	}
	docBase, err := decodeSpec(&cfg, doc)
	if err != nil {
		return nil, "", err
	}
	return &cfg, docBase, nil
}

// derive builds an unvalidated variant of base under name from overlay, a
// JSON object holding just the overridden fields; it is the shared front
// half of Derive and DeriveConfig.
func (r *Registry) derive(name, base string, overlay []byte) (*Config, error) {
	cfg, docBase, err := r.overlay(base, overlay)
	if err != nil {
		return nil, err
	}
	if docBase != "" {
		return nil, fmt.Errorf("uarch: derive overlay for %q must not set \"base\"", name)
	}
	cfg.Name = name
	return cfg, nil
}

// Derive registers a variant of base under name: overlay is a JSON object
// holding just the overridden spec fields ("SKL but lsd_enabled true"). A
// nil or empty overlay registers an exact copy under the new name.
func (r *Registry) Derive(name, base string, overlay []byte) (*Config, error) {
	cfg, err := r.derive(name, base, overlay)
	if err != nil {
		return nil, err
	}
	return r.Register(cfg)
}

// DeriveConfig builds and validates a variant of base under name without
// registering it. The returned Config is ephemeral: it has no registry
// version, takes no registry slot (so enumerating a large design space can
// never hit ErrRegistryFull), and is invisible to ByName. Design-space
// sweeps derive their grid points through this path and analyze them with
// variant-scoped engine calls that bypass the prediction cache.
func (r *Registry) DeriveConfig(name, base string, overlay []byte) (*Config, error) {
	cfg, err := r.derive(name, base, overlay)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// ByName looks up a microarchitecture by name, case-insensitively, in O(1).
// The error for an unknown name lists the valid ones.
func (r *Registry) ByName(name string) (*Config, error) {
	cfg, _, err := r.Resolve(name)
	return cfg, err
}

// Resolve is ByName plus the config's registration version, for caches that
// key on it.
func (r *Registry) Resolve(name string) (*Config, uint64, error) {
	r.mu.RLock()
	ent, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok && name != strings.ToLower(name) {
		r.mu.RLock()
		ent, ok = r.entries[strings.ToLower(name)]
		r.mu.RUnlock()
	}
	if !ok {
		return nil, 0, fmt.Errorf("uarch: unknown microarchitecture %q (one of %s)",
			name, strings.Join(r.Names(), ", "))
	}
	return ent.cfg, ent.ver, nil
}

// Has reports whether name (case-insensitively) is registered.
func (r *Registry) Has(name string) bool {
	_, _, err := r.Resolve(name)
	return err == nil
}

// All returns the registered microarchitectures in registration order (for
// a fresh registry: Table 1 order, newest first).
func (r *Registry) All() []*Config {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Config, len(r.ordered))
	copy(out, r.ordered)
	return out
}

// Names returns the canonical registered names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.ordered))
	for i, cfg := range r.ordered {
		out[i] = cfg.Name
	}
	return out
}

// Len returns the number of registered microarchitectures.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ordered)
}

// Chronological returns the registered microarchitectures oldest first
// (by generation, then registration order for variants sharing one).
func (r *Registry) Chronological() []*Config {
	out := r.All()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Gen < out[j].Gen })
	return out
}

// defaultRegistry backs the package-level All/ByName/Chronological API.
var (
	defaultOnce     sync.Once
	defaultRegistry *Registry
)

// Default returns the process-wide default registry, created on first use
// from the embedded spec files.
func Default() *Registry {
	defaultOnce.Do(func() { defaultRegistry = NewRegistry() })
	return defaultRegistry
}
