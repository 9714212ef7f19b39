// Command speclint lints microarchitecture spec files: the nine embedded
// Table 1 specs always, plus any *.json files in directories given as
// arguments. It is the CI entry point of the spec-validation gate (the
// prediction-level half of the gate is the TestArchParity golden test).
//
// For every spec it checks validation (port masks, role coverage,
// generation, LSD/IDQ invariants); for the embedded set it additionally
// checks the JSON round trip (Config → JSON → Config must be the identity),
// Table 1 completeness and generation ordering.
//
// With -grid the arguments are design-space grid files (the JSON consumed
// by cmd/facile-sweep and POST /v1/sweep) instead: each is parsed and
// structurally validated, then every point is derived from its base as a
// sweep derives it, so a param/value combination the spec validator would
// reject fails the lint rather than the sweep.
//
// Usage:
//
//	speclint [dir ...]
//	speclint -grid grid.json [grid.json ...]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"facile"

	"facile/internal/sweep"
	"facile/internal/uarch"
)

func main() {
	gridMode := flag.Bool("grid", false, "lint design-space grid files instead of spec directories")
	flag.Parse()

	fail := 0
	bad := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "speclint: "+format+"\n", args...)
		fail = 1
	}

	if *gridMode {
		if flag.NArg() == 0 {
			bad("-grid needs at least one grid file")
		}
		for _, path := range flag.Args() {
			if err := lintGrid(path); err != nil {
				bad("%v", err)
			}
		}
		os.Exit(fail)
	}

	// The embedded set: building a registry parses and validates all nine
	// specs (uarch.NewRegistry panics on a broken embedded file, which the
	// deferred handler reports as a lint failure rather than a crash).
	reg, err := func() (r *uarch.Registry, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("%v", p)
			}
		}()
		return uarch.NewRegistry(), nil
	}()
	if err != nil {
		bad("embedded specs: %v", err)
		os.Exit(1)
	}
	all := reg.All()
	if len(all) != 9 {
		bad("embedded specs: got %d, want the nine of Table 1", len(all))
	}
	seenGen := make(map[uarch.Gen]string)
	var prevGen uarch.Gen = 1<<31 - 1
	for _, cfg := range all {
		if err := cfg.Validate(); err != nil {
			bad("%s: %v", cfg.Name, err)
			continue
		}
		// Round trip: Config → JSON → Config must be the identity, and the
		// JSON must render back to the same bytes.
		data, err := cfg.JSON()
		if err != nil {
			bad("%s: marshal: %v", cfg.Name, err)
			continue
		}
		var back uarch.Config
		if err := json.Unmarshal(data, &back); err != nil {
			bad("%s: reparse: %v", cfg.Name, err)
			continue
		}
		data2, err := back.JSON()
		if err != nil {
			bad("%s: remarshal: %v", cfg.Name, err)
			continue
		}
		if back != *cfg || !bytes.Equal(data, data2) {
			bad("%s: spec does not round-trip through JSON", cfg.Name)
		}
		// Table 1 completeness and Gen ordering (newest first, distinct).
		if cfg.FullName == "" || cfg.CPU == "" || cfg.Released == 0 {
			bad("%s: incomplete Table 1 identity", cfg.Name)
		}
		if other, dup := seenGen[cfg.Gen]; dup {
			bad("%s: generation %s already used by %s", cfg.Name, cfg.Gen, other)
		}
		seenGen[cfg.Gen] = cfg.Name
		if cfg.Gen >= prevGen {
			bad("%s: embedded specs out of Table 1 order (gen %s after %s)",
				cfg.Name, cfg.Gen, prevGen)
		}
		prevGen = cfg.Gen
		fmt.Printf("ok  embedded %-4s %s (gen %s, %d-wide, %d ports)\n",
			cfg.Name, cfg.FullName, cfg.Gen, cfg.IssueWidth, cfg.NumPorts)
	}

	// External spec directories lint against a scratch registry seeded with
	// the built-ins, so overlays of the nine resolve.
	for _, dir := range flag.Args() {
		scratch := facile.NewArchRegistry()
		infos, err := scratch.LoadSpecDir(dir)
		if err != nil {
			bad("%s: %v", dir, err)
			continue
		}
		for _, info := range infos {
			fmt.Printf("ok  %s/%s (gen %s, %d-wide, %d ports)\n",
				dir, info.Name, info.Gen, info.IssueWidth, info.NumPorts)
		}
	}
	os.Exit(fail)
}

// lintGrid parses and validates one grid file, then derives every point
// from its base in a scratch registry seeded with the built-ins, through
// the typed derivation a sweep runs (sweep.Derive), so lint and sweep
// agree on which points fail. Derivation is the semantic half of the lint:
// Grid.Validate defers param/value legality to the spec validator, which
// only runs when a point's settings are applied.
func lintGrid(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	grid, err := sweep.ParseGrid(data)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	base, err := uarch.NewRegistry().ByName(grid.Base)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	var first error
	sweep.Derive(grid, base, func(_ int, name string, err error) {
		if err != nil && first == nil {
			first = fmt.Errorf("%s: point %s: %v", path, name, err)
		}
	})
	if first != nil {
		return first
	}
	fmt.Printf("ok  grid %s (base %s, %d axes, %d points)\n",
		path, grid.Base, len(grid.Axes), grid.Points())
	return nil
}
