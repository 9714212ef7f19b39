package server

import (
	"encoding/json"
	"net/http"

	"facile/internal/sweep"
)

// handleSweep serves POST /v1/sweep: a design-space exploration over
// ephemeral variants of a registered base microarchitecture. One request
// fans out to points x blocks Analyze calls, so the route sits behind the
// admission gate and both dimensions are bounded (MaxSweepPoints,
// MaxBatchItems). The request context rides into the sweep: an abandoned
// request cancels between analyses and surfaces as 499 in the metrics.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) (any, error) {
	var wire SweepRequest
	if err := readJSON(json.NewDecoder(r.Body), &wire); err != nil {
		return nil, wrapBodyErr(err)
	}
	if len(wire.Grid) == 0 {
		return nil, badRequest("missing \"grid\"")
	}
	grid, err := sweep.ParseGrid(wire.Grid)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if pts := grid.Points(); pts > s.maxSweepPoints {
		return nil, badRequest("grid enumerates %d design points; the limit is %d", pts, s.maxSweepPoints)
	}
	mode, err := grid.ResolveMode()
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if wire.Mode != "" {
		if mode, err = parseMode(wire.Mode); err != nil {
			return nil, err
		}
	}
	switch {
	case len(wire.Blocks) == 0:
		return nil, badRequest("empty \"blocks\"")
	case len(wire.Blocks) > s.maxBatchItems:
		return nil, badRequest("workload has %d blocks; the limit is %d", len(wire.Blocks), s.maxBatchItems)
	case wire.Workers < 0:
		return nil, badRequest("negative \"workers\"")
	case wire.Top < 0:
		return nil, badRequest("negative \"top\"")
	}
	blocks := make([][]byte, len(wire.Blocks))
	for i, h := range wire.Blocks {
		if blocks[i], err = appendHex(nil, h); err != nil {
			return nil, badRequest("blocks[%d]: invalid hex: %v", i, err)
		}
	}

	res, err := sweep.Run(r.Context(), s.engine, grid,
		sweep.Workload{Blocks: blocks, Mode: mode},
		sweep.Options{Workers: wire.Workers})
	if err != nil {
		// The engine judges the base arch and every block in the block's
		// base analysis, which the sweep's pass over the block resolves
		// first: its rejections wrap facile.ErrBadRequest (400); context
		// errors map to 499/504; the rest are server faults.
		return nil, err
	}
	s.sweepPoints.Add(uint64(res.Points))
	s.sweepAnalyses.Add(uint64(res.Points) * uint64(res.Blocks))
	if wire.Top > 0 && wire.Top < len(res.Variants) {
		res.Variants = res.Variants[:wire.Top]
	}
	return res, nil
}
