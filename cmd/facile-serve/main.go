// Command facile-serve runs the Facile prediction service: an HTTP JSON
// API over a shared, warm facile.Engine.
//
// Usage:
//
//	facile-serve [-addr :8629] [-archs SKL,RKL] [-arch-dir ./myarchs]
//	             [-cache 4096] [-cache-shards 0] [-cache-bytes 0] [-workers 0]
//	             [-timeout 10s]
//	             [-max-inflight 0] [-max-queue 0] [-client-concurrency 0] [-retry-after 1]
//	             [-snapshot warm.facsnp] [-snapshot-interval 5m]
//	             [-pprof]
//
// Endpoints (see docs/API.md for the full reference):
//
//	POST /v1/analyze         {"code":"4801d8480fafc3","arch":"SKL","mode":"loop","detail":"full"}
//	POST /v1/predict/batch   {"requests":[...],"concurrency":4}
//	POST /v1/sweep           {"grid":{"base":"SKL","axes":[...]},"blocks":["4801d8"]}
//	GET  /v1/archs
//	POST /v1/archs           {"name":"SKL-LSD","base":"SKL","overlay":{"lsd_enabled":true}}
//	GET  /v1/cache/snapshot  the warm working set, hottest-first (?max_bytes=N)
//	PUT  /v1/cache/snapshot  import a snapshot (re-analyzed, never replaces newer entries)
//	GET  /healthz
//	GET  /metrics
//
// /v1/analyze is the single-block endpoint: one engine analysis returns the
// prediction, the ordered per-component bound breakdown, the sorted
// counterfactual speedups, and the rendered report text; "detail"
// ("prediction", "speedups" or "full") trims the response.
//
// Microarchitectures come from the runtime registry: the nine built-ins,
// plus any spec files loaded at startup via -arch-dir, plus anything
// registered over HTTP via POST /v1/archs (disabled when -archs pins a
// fixed set). Registered arches are served without restart.
//
// Warm start: -snapshot names a cache snapshot file. If it exists at boot it
// is imported (spec-mismatched or corrupt snapshots are logged and ignored —
// the server starts cold rather than not at all), and on graceful shutdown
// the warm working set is exported back to it (atomically, via a temp file).
// -snapshot-interval additionally exports periodically, so a crash loses at
// most one interval of warmth; shutdown waits for a periodic export in
// progress before writing the final one.
//
// Load shedding: -max-inflight bounds concurrently processed analysis
// requests; -max-queue more wait for a slot and the rest are answered 429
// with a Retry-After hint (-retry-after seconds) in microseconds instead of
// queueing unboundedly. -client-concurrency caps one client (X-API-Key or
// remote host). All admission control is off by default.
//
// With -pprof the standard net/http/pprof profiling endpoints are mounted
// under /debug/pprof/ on the same listener, so production batch throughput
// can be profiled in place (go tool pprof http://host:8629/debug/pprof/profile).
// The flag is off by default: the profiling surface is diagnostic, not part
// of the public API, and exposes goroutine/heap internals.
//
// The process shuts down gracefully on SIGINT/SIGTERM: the listener stops
// accepting, in-flight requests complete, then the server is closed and the
// snapshot written.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"facile"

	"facile/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8629", "listen address")
		archs       = flag.String("archs", "", "comma-separated microarchitectures to serve (default: all, including POST /v1/archs registrations)")
		archDir     = flag.String("arch-dir", "", "directory of additional microarchitecture spec files (*.json) to load at startup")
		cache       = flag.Int("cache", 0, "engine prediction-cache entries (<=0: default)")
		cacheShards = flag.Int("cache-shards", 0, "prediction-cache shard count, rounded up to a power of two (0: 4x GOMAXPROCS)")
		cacheBytes  = flag.Int64("cache-bytes", 0, "prediction-cache byte budget by accounted entry size (0: none)")
		workers     = flag.Int("workers", 0, "engine worker-pool size (<=0: GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 0, "per-request handling deadline (0: default, <0: none)")
		maxInflight = flag.Int("max-inflight", 0, "admission control: max concurrently processed analysis requests (0: unlimited)")
		maxQueue    = flag.Int("max-queue", 0, "admission control: max requests waiting for a slot (0: same as -max-inflight, <0: no queue)")
		clientConc  = flag.Int("client-concurrency", 0, "admission control: per-client concurrent request cap, keyed by X-API-Key or remote host (0: none)")
		retryAfter  = flag.Int("retry-after", 1, "Retry-After seconds sent with shed (429) responses")
		sweepPoints = flag.Int("max-sweep-points", 0, "max design points one /v1/sweep grid may enumerate (0: default)")
		snapshot    = flag.String("snapshot", "", "cache snapshot file: imported at boot if present, exported on shutdown")
		snapEvery   = flag.Duration("snapshot-interval", 0, "additionally export the snapshot at this interval (0: only on shutdown)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof profiling endpoints under /debug/pprof/")
	)
	flag.Parse()

	if *archDir != "" {
		infos, err := facile.LoadArchDir(*archDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "facile-serve:", err)
			os.Exit(1)
		}
		names := make([]string, len(infos))
		for i, info := range infos {
			names[i] = info.Name
		}
		log.Printf("facile-serve: loaded %d arch specs from %s: %s",
			len(infos), *archDir, strings.Join(names, ", "))
	}

	var archList []string
	if *archs != "" {
		for _, a := range strings.Split(*archs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				archList = append(archList, a)
			}
		}
	}
	// The engine judges every block the server forwards; real basic blocks
	// are tens of bytes, so the service refuses any over 4 KiB.
	engine, err := facile.NewEngine(facile.EngineConfig{
		Archs: archList, CacheSize: *cache, Workers: *workers,
		CacheShards: *cacheShards, MaxCacheBytes: *cacheBytes,
		MaxCodeBytes: 4096,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "facile-serve:", err)
		os.Exit(1)
	}
	svc, err := server.New(server.Config{
		Engine: engine, RequestTimeout: *timeout,
		MaxInFlight: *maxInflight, MaxQueue: *maxQueue,
		ClientConcurrency: *clientConc, RetryAfter: *retryAfter,
		MaxSweepPoints: *sweepPoints,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "facile-serve:", err)
		os.Exit(1)
	}

	if *snapshot != "" {
		importSnapshot(engine, *snapshot)
	}

	// The pprof handlers are mounted on an explicit mux (not the default
	// one) so nothing is exposed unless the flag asks for it; the service
	// handles everything else, including unknown /debug paths (404).
	handler := http.Handler(svc)
	if *pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", svc)
		handler = mux
		log.Print("facile-serve: pprof enabled at /debug/pprof/")
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The final export waits for the periodic exporter to return, so the
	// two never share the temp file.
	var snapWG sync.WaitGroup
	if *snapshot != "" && *snapEvery > 0 {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			tick := time.NewTicker(*snapEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					exportSnapshot(engine, *snapshot)
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("facile-serve: listening on %s (archs: %s)", *addr, strings.Join(engine.Archs(), ", "))

	select {
	case err := <-errc:
		// Listener failed before any shutdown was requested.
		log.Fatalf("facile-serve: %v", err)
	case <-ctx.Done():
	}

	log.Print("facile-serve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("facile-serve: shutdown: %v", err)
	}
	svc.Close() // after the listener drains
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("facile-serve: %v", err)
	}
	if *snapshot != "" {
		snapWG.Wait()
		exportSnapshot(engine, *snapshot)
	}
	stats := engine.Stats()
	log.Printf("facile-serve: bye (cache: %d hits, %d misses, %d entries)",
		stats.Hits, stats.Misses, stats.Entries)
}

// importSnapshot warms the engine from path at boot. A missing file is the
// normal first boot; a stale or damaged one is logged and skipped — a cold
// start is always safe, so snapshot trouble never prevents serving.
func importSnapshot(engine *facile.Engine, path string) {
	f, err := os.Open(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			log.Printf("facile-serve: snapshot: %v", err)
		}
		return
	}
	defer f.Close()
	start := time.Now()
	imported, skipped, err := engine.ImportSnapshot(context.Background(), f)
	if err != nil {
		log.Printf("facile-serve: snapshot %s not imported (starting cold): %v", path, err)
		return
	}
	log.Printf("facile-serve: imported %d cache entries from %s in %v (%d skipped)",
		imported, path, time.Since(start).Round(time.Millisecond), skipped)
}

// exportSnapshot writes the warm working set to path atomically: a temp file
// in the same directory, synced to disk, then renamed, so a crash mid-write
// never leaves a truncated snapshot for the next boot. Only one export may
// run at a time: they share the temp file.
func exportSnapshot(engine *facile.Engine, path string) {
	var buf bytes.Buffer
	n, err := engine.ExportSnapshot(&buf, 0)
	if err == nil {
		err = writeFileAtomic(path, buf.Bytes())
	}
	if err != nil {
		log.Printf("facile-serve: snapshot export: %v", err)
		return
	}
	log.Printf("facile-serve: exported %d cache entries to %s", n, path)
}

// writeFileAtomic replaces path with data through path+".tmp", syncing the
// temp file before the rename; on failure the temp file is removed.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
