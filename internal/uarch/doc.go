// Package uarch holds the microarchitecture layer: Config, the one
// representation of a machine, which is also its declarative spec format
// (one JSON document per machine, decoded straight into a Config),
// load-time validation, and a thread-safe runtime Registry of Configs.
// Overlays ("SKL but lsd_enabled true") decode onto a copy of their base's
// Config. It is the stand-in for uiCA's microArchConfigs.py, made
// data-driven: the nine microarchitectures of the paper's Table 1 (Sandy
// Bridge through Rocket Lake) ship as embedded spec files in specs/, and
// new scenarios — hypothetical design points, erratum toggles, future
// cores — are opened by loading a spec or deriving a variant overlay at
// runtime, not by recompiling (docs/ARCHITECTURE.md, "The
// microarchitecture registry").
//
// Parameter values follow publicly documented figures (uops.info, the uiCA
// paper, Agner Fog's tables) where known; the remainder are plausible
// reconstructions, used identically by the analytical model and the
// reference simulator (see docs/ARCHITECTURE.md, "Modeling limits").
// TestSpecSeedParity pins the embedded specs field-for-field to the seed
// hardcoded tables they replaced.
package uarch
