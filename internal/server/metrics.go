package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"facile/internal/metrics"
)

// handleMetrics renders the server's operational counters in the Prometheus
// text exposition format: per-endpoint request counts and latency
// histograms, admission and sweep counters, and the engine's cache
// accounting.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) (any, error) {
	var sb strings.Builder

	sb.WriteString("# HELP facile_requests_total Requests served, by endpoint and status code.\n")
	sb.WriteString("# TYPE facile_requests_total counter\n")
	for _, rm := range s.routes {
		type cc struct {
			code int
			n    uint64
		}
		var codes []cc
		rm.byCode.Range(func(k, v any) bool {
			codes = append(codes, cc{k.(int), v.(*atomic.Uint64).Load()})
			return true
		})
		sort.Slice(codes, func(i, j int) bool { return codes[i].code < codes[j].code })
		for _, c := range codes {
			fmt.Fprintf(&sb, "facile_requests_total{endpoint=%q,code=\"%d\"} %d\n", rm.name, c.code, c.n)
		}
	}

	sb.WriteString("# HELP facile_request_seconds Request handling latency, by endpoint.\n")
	sb.WriteString("# TYPE facile_request_seconds histogram\n")
	for _, rm := range s.routes {
		snap := rm.latency.Snapshot()
		if snap.Count == 0 {
			continue
		}
		writeHistogram(&sb, "facile_request_seconds", fmt.Sprintf("endpoint=%q", rm.name), snap)
	}

	if a := s.admit; a != nil {
		sb.WriteString("# HELP facile_admission_inflight Analysis requests currently admitted.\n")
		sb.WriteString("# TYPE facile_admission_inflight gauge\n")
		fmt.Fprintf(&sb, "facile_admission_inflight %d\n", a.inFlight())
		sb.WriteString("# HELP facile_admission_queue_depth Requests waiting for an admission slot.\n")
		sb.WriteString("# TYPE facile_admission_queue_depth gauge\n")
		fmt.Fprintf(&sb, "facile_admission_queue_depth %d\n", a.queueDepth())
		sb.WriteString("# HELP facile_admission_admitted_total Analysis requests admitted.\n")
		sb.WriteString("# TYPE facile_admission_admitted_total counter\n")
		fmt.Fprintf(&sb, "facile_admission_admitted_total %d\n", a.admitted.Load())
		sb.WriteString("# HELP facile_admission_shed_total Requests shed with 429, by reason.\n")
		sb.WriteString("# TYPE facile_admission_shed_total counter\n")
		fmt.Fprintf(&sb, "facile_admission_shed_total{reason=\"queue_full\"} %d\n", a.shedQueueFull.Load())
		fmt.Fprintf(&sb, "facile_admission_shed_total{reason=\"client_cap\"} %d\n", a.shedClientCap.Load())
	}

	sb.WriteString("# HELP facile_sweep_points_total Design points served by completed sweeps.\n")
	sb.WriteString("# TYPE facile_sweep_points_total counter\n")
	fmt.Fprintf(&sb, "facile_sweep_points_total %d\n", s.sweepPoints.Load())
	sb.WriteString("# HELP facile_sweep_analyses_total Variant-block analyses served by completed sweeps.\n")
	sb.WriteString("# TYPE facile_sweep_analyses_total counter\n")
	fmt.Fprintf(&sb, "facile_sweep_analyses_total %d\n", s.sweepAnalyses.Load())

	stats := s.engine.Stats()
	sb.WriteString("# HELP facile_engine_cache_hits_total Engine prediction-cache hits.\n")
	sb.WriteString("# TYPE facile_engine_cache_hits_total counter\n")
	fmt.Fprintf(&sb, "facile_engine_cache_hits_total %d\n", stats.Hits)
	sb.WriteString("# HELP facile_engine_cache_misses_total Engine prediction-cache misses.\n")
	sb.WriteString("# TYPE facile_engine_cache_misses_total counter\n")
	fmt.Fprintf(&sb, "facile_engine_cache_misses_total %d\n", stats.Misses)
	sb.WriteString("# HELP facile_engine_cache_evictions_total Entries displaced from the engine LRU.\n")
	sb.WriteString("# TYPE facile_engine_cache_evictions_total counter\n")
	fmt.Fprintf(&sb, "facile_engine_cache_evictions_total %d\n", stats.Evictions)
	sb.WriteString("# HELP facile_engine_cache_entries Cached predictions currently held.\n")
	sb.WriteString("# TYPE facile_engine_cache_entries gauge\n")
	fmt.Fprintf(&sb, "facile_engine_cache_entries %d\n", stats.Entries)
	sb.WriteString("# HELP facile_engine_cache_bytes Accounted size of the cached analyses.\n")
	sb.WriteString("# TYPE facile_engine_cache_bytes gauge\n")
	fmt.Fprintf(&sb, "facile_engine_cache_bytes %d\n", stats.SizeBytes)
	sb.WriteString("# HELP facile_engine_cache_shards Prediction-cache shard count.\n")
	sb.WriteString("# TYPE facile_engine_cache_shards gauge\n")
	fmt.Fprintf(&sb, "facile_engine_cache_shards %d\n", stats.Shards)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(sb.String()))
	return nil, nil
}

// writeHistogram renders one metrics.HistogramSnapshot as Prometheus
// cumulative buckets. labels is either empty or `k="v"` pairs without
// braces.
func writeHistogram(sb *strings.Builder, name, labels string, snap metrics.HistogramSnapshot) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	plain := "" // suffix for _sum/_count: labels in braces, or nothing
	if labels != "" {
		plain = "{" + labels + "}"
	}
	var cum uint64
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		fmt.Fprintf(sb, "%s_bucket{%s%sle=%q} %d\n",
			name, labels, sep, formatBound(bound), cum)
	}
	fmt.Fprintf(sb, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, snap.Count)
	fmt.Fprintf(sb, "%s_sum%s %g\n", name, plain, snap.Sum)
	fmt.Fprintf(sb, "%s_count%s %d\n", name, plain, snap.Count)
}

// formatBound renders a bucket bound the way Prometheus clients do
// (shortest float representation).
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
