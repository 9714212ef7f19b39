package facile

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"facile/internal/uarch"
)

// ErrDuplicateArch reports an attempt to register a microarchitecture under
// a name (case-insensitively) already taken in the same registry; match it
// with errors.Is to distinguish conflicts from validation failures.
var ErrDuplicateArch = uarch.ErrDuplicate

// ErrArchRegistryFull reports that a registry reached its capacity backstop
// (uarch.MaxEntries); registered names are never evicted, so the cap bounds
// registry memory against unbounded registration.
var ErrArchRegistryFull = uarch.ErrRegistryFull

// ArchRegistry is a thread-safe collection of microarchitectures. The nine
// Table 1 microarchitectures are built in (loaded from declarative spec
// files embedded in the binary); additional ones can be opened at runtime —
// full spec files, or variant overlays of a registered base ("SKL but with
// the LSD enabled") — without recompiling anything.
//
// Every registry starts with the nine built-ins. Names are unique per
// registry (case-insensitively) and immutable once registered, and lookups
// are case-insensitive O(1). The process-wide DefaultRegistry backs the
// package-level Archs/ArchInfos/RegisterArch/LoadArchSpec/LoadArchDir API
// and every engine that configures no registry of its own; independent
// registries (NewArchRegistry) isolate design-space experiments from each
// other and can be attached to an Engine via EngineConfig.Registry.
type ArchRegistry struct {
	r *uarch.Registry
}

// NewArchRegistry returns a fresh registry holding the nine built-in
// microarchitectures, independent of the default one.
func NewArchRegistry() *ArchRegistry {
	return &ArchRegistry{r: uarch.NewRegistry()}
}

// DefaultRegistry returns the process-wide registry used by the package-
// level API and by engines that do not configure their own.
func DefaultRegistry() *ArchRegistry {
	return &ArchRegistry{r: uarch.Default()}
}

// reg returns the wrapped registry, falling back to the default; it makes a
// nil *ArchRegistry (e.g. the zero EngineConfig) mean "the default".
func (ar *ArchRegistry) reg() *uarch.Registry {
	if ar == nil {
		return uarch.Default()
	}
	return ar.r
}

// LoadSpec parses a microarchitecture spec from JSON, validates it, and
// registers it. If the spec names a "base", it is an overlay: only the
// overridden fields need to be present. See docs/ARCHITECTURE.md for the
// spec format and README.md for a worked example.
func (ar *ArchRegistry) LoadSpec(data []byte) (ArchInfo, error) {
	cfg, err := ar.reg().Load(data)
	if err != nil {
		return ArchInfo{}, err
	}
	return infoFor(cfg), nil
}

// Derive registers a variant of base under name; overlay is a JSON object
// holding just the overridden spec fields (nil registers an exact copy).
//
//	reg.Derive("SKL-LSD", "SKL", []byte(`{"lsd_enabled": true}`))
func (ar *ArchRegistry) Derive(name, base string, overlay []byte) (ArchInfo, error) {
	cfg, err := ar.reg().Derive(name, base, overlay)
	if err != nil {
		return ArchInfo{}, err
	}
	return infoFor(cfg), nil
}

// Variant is an ephemeral microarchitecture: a validated design point
// derived from a registered base without being registered itself. Variants
// take no registry slot — enumerating a 2,000-point design-space grid can
// never hit ErrArchRegistryFull — and are invisible to name lookup, so they
// cannot collide with (or poison the cache-key versioning of) registered
// arches. Analyze a block against one by setting Request.Variant.
//
// A Variant is immutable and safe for concurrent use.
type Variant struct {
	cfg *uarch.Config
}

// Name returns the variant's name (as passed to DeriveVariant).
func (v *Variant) Name() string { return v.cfg.Name }

// Info returns the variant's parameter summary, in the same shape served
// for registered arches.
func (v *Variant) Info() ArchInfo { return infoFor(v.cfg) }

// Spec returns the variant's full declarative JSON spec — the document that
// would recreate it (via LoadSpec or DeriveVariant with no overlay).
func (v *Variant) Spec() ([]byte, error) {
	return v.cfg.JSON()
}

// DeriveVariant builds and validates a variant of base under name without
// registering it: overlay is a JSON object holding just the overridden spec
// fields, exactly as in Derive. Use it for ephemeral design points —
// parameter sweeps, what-if queries — that should not consume registry
// capacity; use Derive when the variant must be servable by name.
func (ar *ArchRegistry) DeriveVariant(name, base string, overlay []byte) (*Variant, error) {
	cfg, err := ar.reg().DeriveConfig(name, base, overlay)
	if err != nil {
		return nil, err
	}
	return &Variant{cfg: cfg}, nil
}

// LoadSpecDir loads every *.json spec file in dir and returns the
// registered arches. Files may reference each other as overlay bases in any
// order (and any filenames): loading retries files whose base is not yet
// registered until a pass makes no progress, so only genuinely unresolvable
// or invalid specs fail.
func (ar *ArchRegistry) LoadSpecDir(dir string) ([]ArchInfo, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("facile: no *.json spec files in %s", dir)
	}
	sort.Strings(paths) // deterministic registration order among independent specs
	pending := make(map[string][]byte, len(paths))
	var order []string
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		pending[path] = data
		order = append(order, path)
	}
	var out []ArchInfo
	lastErr := make(map[string]error)
	for len(pending) > 0 {
		progressed := false
		for _, path := range order {
			data, ok := pending[path]
			if !ok {
				continue
			}
			info, err := ar.LoadSpec(data)
			if err != nil {
				lastErr[path] = err
				continue
			}
			out = append(out, info)
			delete(pending, path)
			progressed = true
		}
		if !progressed {
			// Report the first (alphabetically) stuck file: an unresolvable
			// base, a base cycle, or a plainly invalid spec.
			for _, path := range order {
				if _, stuck := pending[path]; stuck {
					return out, fmt.Errorf("%s: %w", path, lastErr[path])
				}
			}
		}
	}
	return out, nil
}

// Archs returns the registered microarchitecture names: the nine built-ins
// first (newest first, paper Table 1), then runtime-registered ones in
// registration order.
func (ar *ArchRegistry) Archs() []string { return ar.reg().Names() }

// Infos returns details for every registered microarchitecture, in Archs
// order.
func (ar *ArchRegistry) Infos() []ArchInfo {
	cfgs := ar.reg().All()
	out := make([]ArchInfo, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = infoFor(cfg)
	}
	return out
}

// Info returns the details of one microarchitecture (case-insensitive).
func (ar *ArchRegistry) Info(name string) (ArchInfo, error) {
	cfg, err := ar.reg().ByName(name)
	if err != nil {
		return ArchInfo{}, err
	}
	return infoFor(cfg), nil
}

// Has reports whether name (case-insensitively) is registered.
func (ar *ArchRegistry) Has(name string) bool { return ar.reg().Has(name) }

// Spec returns the declarative JSON spec of a registered microarchitecture
// — the exact document that would recreate it via LoadSpec.
func (ar *ArchRegistry) Spec(name string) ([]byte, error) {
	cfg, err := ar.reg().ByName(name)
	if err != nil {
		return nil, err
	}
	return cfg.JSON()
}

// RegisterArch registers a variant of a built-in (or previously registered)
// microarchitecture in the default registry: overlay is a JSON object with
// just the overridden spec fields.
//
//	facile.RegisterArch("ICL-4W", "ICL", []byte(`{"issue_width": 4, "retire_width": 4}`))
func RegisterArch(name, base string, overlay []byte) (ArchInfo, error) {
	return DefaultRegistry().Derive(name, base, overlay)
}

// LoadArchSpec registers a microarchitecture spec (full or base+overlay
// JSON) in the default registry.
func LoadArchSpec(data []byte) (ArchInfo, error) {
	return DefaultRegistry().LoadSpec(data)
}

// LoadArchDir loads every *.json spec file in dir into the default
// registry (the --arch-dir flag of cmd/facile and cmd/facile-serve).
func LoadArchDir(dir string) ([]ArchInfo, error) {
	return DefaultRegistry().LoadSpecDir(dir)
}

// infoFor materializes the public ArchInfo view of a config.
func infoFor(cfg *uarch.Config) ArchInfo {
	return ArchInfo{
		Name:       cfg.Name,
		FullName:   cfg.FullName,
		CPU:        cfg.CPU,
		Released:   cfg.Released,
		Gen:        cfg.Gen.String(),
		IssueWidth: cfg.IssueWidth,
		IDQSize:    cfg.IDQSize,
		LSDEnabled: cfg.LSDEnabled,
		NumPorts:   cfg.NumPorts,
	}
}
