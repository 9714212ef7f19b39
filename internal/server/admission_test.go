package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"facile"
)

func TestAdmissionAcquireRelease(t *testing.T) {
	a := newAdmission(2, 1, 0, 3)
	ctx := context.Background()

	r1, err := a.acquire(ctx, "addr:a")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.acquire(ctx, "addr:b")
	if err != nil {
		t.Fatal(err)
	}
	if got := a.inFlight(); got != 2 {
		t.Fatalf("inFlight = %d, want 2", got)
	}

	// Both slots busy: a third caller queues; a fourth overflows the queue
	// and is shed immediately.
	queued := make(chan error, 1)
	go func() {
		r3, err := a.acquire(ctx, "addr:c")
		if err == nil {
			defer r3()
		}
		queued <- err
	}()
	for a.queueDepth() == 0 {
		time.Sleep(time.Millisecond)
	}
	_, err = a.acquire(ctx, "addr:d")
	shed, ok := err.(*shedError)
	if !ok || shed.reason != "queue_full" {
		t.Fatalf("overflow acquire = %v, want queue_full shed", err)
	}
	if shed.retryAfter != 3 {
		t.Fatalf("retryAfter = %d, want 3", shed.retryAfter)
	}

	r1() // frees a slot: the queued caller is admitted
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire = %v, want admission", err)
	}
	r2()
	r1() // double release is a no-op
	if a.shedQueueFull.Load() != 1 {
		t.Fatalf("shedQueueFull = %d, want 1", a.shedQueueFull.Load())
	}
}

func TestAdmissionQueuedCancel(t *testing.T) {
	a := newAdmission(1, 4, 0, 1)
	release, err := a.acquire(context.Background(), "addr:a")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.acquire(ctx, "addr:b")
		done <- err
	}()
	for a.queueDepth() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	if got := a.queueDepth(); got != 0 {
		t.Fatalf("queueDepth after cancel = %d, want 0", got)
	}
	release()
	// The slot is reusable after the cancelled waiter left.
	r, err := a.acquire(context.Background(), "addr:c")
	if err != nil {
		t.Fatal(err)
	}
	r()
}

func TestAdmissionClientCap(t *testing.T) {
	a := newAdmission(8, 8, 2, 1)
	ctx := context.Background()

	r1, _ := a.acquire(ctx, "key:k1")
	r2, _ := a.acquire(ctx, "key:k1")
	_, err := a.acquire(ctx, "key:k1")
	shed, ok := err.(*shedError)
	if !ok || shed.reason != "client_cap" {
		t.Fatalf("third acquire for one client = %v, want client_cap shed", err)
	}
	// A different client is unaffected.
	r3, err := a.acquire(ctx, "key:k2")
	if err != nil {
		t.Fatalf("other client shed: %v", err)
	}
	r1()
	// Below the cap again: admitted.
	r4, err := a.acquire(ctx, "key:k1")
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	r2()
	r3()
	r4()
	if a.shedClientCap.Load() != 1 {
		t.Fatalf("shedClientCap = %d, want 1", a.shedClientCap.Load())
	}
	// The client map does not leak idle clients.
	a.mu.Lock()
	n := len(a.clients)
	a.mu.Unlock()
	if n != 0 {
		t.Fatalf("clients map holds %d idle entries", n)
	}
}

func TestClientKey(t *testing.T) {
	r := httptest.NewRequest("POST", "/v1/analyze", nil)
	r.RemoteAddr = "198.51.100.7:49152"
	if got := clientKey(r); got != "addr:198.51.100.7" {
		t.Fatalf("clientKey = %q", got)
	}
	r2 := httptest.NewRequest("POST", "/v1/analyze", nil)
	r2.RemoteAddr = "198.51.100.7:49153" // same host, new connection
	if clientKey(r2) != clientKey(r) {
		t.Fatal("connections from one host must share a client key")
	}
	r2.Header.Set("X-API-Key", "team-a")
	if got := clientKey(r2); got != "key:team-a" {
		t.Fatalf("clientKey with API key = %q", got)
	}
}

// TestShedResponse: a saturated server answers over-capacity requests with
// 429, a Retry-After header, and the standard JSON error body.
func TestShedResponse(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: -1, RetryAfter: 7})
	// Occupy the only slot directly so the HTTP request is deterministic.
	release, err := s.admit.acquire(context.Background(), "addr:holder")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(
		`{"code":"`+testBlockHex+`","arch":"SKL","detail":"prediction"}`))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", got)
	}
	var resp ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Error == "" {
		t.Fatalf("shed body = %q (%v), want JSON error", w.Body.String(), err)
	}

	// Operational endpoints never shed: health and metrics answer while the
	// server is saturated.
	for _, path := range []string{"/healthz", "/metrics"} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s under saturation = %d, want 200", path, w.Code)
		}
	}
}

// TestClientCapOverHTTP: the per-client cap keys on X-API-Key.
func TestClientCapOverHTTP(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 8, ClientConcurrency: 1})
	// Hold client A's one slot.
	release, err := s.admit.acquire(context.Background(), "key:team-a")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	mk := func(key string) int {
		req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(
			`{"code":"`+testBlockHex+`","arch":"SKL","detail":"prediction"}`))
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		return w.Code
	}
	if code := mk("team-a"); code != http.StatusTooManyRequests {
		t.Fatalf("capped client status = %d, want 429", code)
	}
	if code := mk("team-b"); code != http.StatusOK {
		t.Fatalf("other client status = %d, want 200", code)
	}
	if code := mk(""); code != http.StatusOK {
		t.Fatalf("keyless client status = %d, want 200", code)
	}
}

// slowBlockHex builds a long dependency-chained block so one uncached
// analysis takes a stable, measurable time.
func slowBlockHex() string {
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		sb.WriteString(testBlockHex)
	}
	return sb.String()
}

// TestSaturationLatency is the load-shedding acceptance test: at 2x the
// server's capacity, over-capacity requests are shed with 429 + Retry-After,
// and the p99 latency of the requests the server does admit stays within 2x
// of the unsaturated p99 — shedding converts overload into fast rejections
// instead of letting queueing delay poison every response.
func TestSaturationLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	engine, err := facile.NewEngine(facile.EngineConfig{CacheSize: -1}) // every request computes
	if err != nil {
		t.Fatal(err)
	}
	// One slot, no queue: admitted requests run alone, so their latency is
	// the service time regardless of offered load.
	s := newTestServer(t, Config{Engine: engine, MaxInFlight: 1, MaxQueue: -1})
	body := `{"code":"` + slowBlockHex() + `","arch":"SKL","detail":"prediction"}`

	request := func() (int, time.Duration, string) {
		req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(body))
		w := httptest.NewRecorder()
		start := time.Now()
		s.ServeHTTP(w, req)
		return w.Code, time.Since(start), w.Header().Get("Retry-After")
	}

	// Unsaturated baseline: sequential requests, all admitted.
	const baseN = 40
	var base []time.Duration
	for i := 0; i < baseN; i++ {
		code, d, _ := request()
		if code != http.StatusOK {
			t.Fatalf("unsaturated request = %d", code)
		}
		base = append(base, d)
	}
	baseP99 := percentile(base, 0.99)

	// 2x saturation: twice the server's one-slot capacity, continuously.
	const clients, perClient = 2, 60
	var mu sync.Mutex
	var admitted []time.Duration
	sheds := 0
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				code, d, retry := request()
				mu.Lock()
				switch code {
				case http.StatusOK:
					admitted = append(admitted, d)
				case http.StatusTooManyRequests:
					sheds++
					if retry == "" {
						t.Error("429 without Retry-After")
					}
				default:
					t.Errorf("unexpected status %d", code)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if sheds == 0 {
		t.Fatal("2x saturation produced no sheds")
	}
	if len(admitted) == 0 {
		t.Fatal("2x saturation admitted nothing")
	}
	satP99 := percentile(admitted, 0.99)
	t.Logf("unsaturated p99 %v; saturated p99 %v over %d admitted, %d shed",
		baseP99, satP99, len(admitted), sheds)
	// Floor the baseline at a few ms so scheduler noise on tiny service
	// times cannot flake the ratio.
	floor := baseP99
	if floor < 5*time.Millisecond {
		floor = 5 * time.Millisecond
	}
	if satP99 > 2*floor {
		t.Fatalf("saturated p99 %v exceeds 2x unsaturated p99 %v (floor %v)", satP99, baseP99, floor)
	}
}

func percentile(ds []time.Duration, p float64) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// BenchmarkServerSaturation sweeps offered load across the admission
// controller — the saturation curve tracked in BENCH_9.json. The server has
// one processing slot and no queue; each sub-benchmark fires 1x/2x/4x as many
// concurrent clients as slots, continuously. Every request computes (cache
// off, long dependency-chained block), so admitted requests occupy the slot
// for a stable service time and over-capacity clients actually collide with
// it. Reported per load point: admitted latency percentiles (p50_ms/p95_ms/p99_ms),
// the shed-response p99 (shed_p99_ms — how fast the 429 path answers), the
// shed fraction, and end-to-end req/s. The CI bench job holds shed_p99_ms
// under a ceiling via benchjson -ceil-bench: shedding must stay cheap, or it
// is just a slower way to fail.
func BenchmarkServerSaturation(b *testing.B) {
	engine, err := facile.NewEngine(facile.EngineConfig{CacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Engine: engine, MaxInFlight: 1, MaxQueue: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	body := []byte(`{"code":"` + slowBlockHex() + `","arch":"SKL","detail":"prediction"}`)

	for _, mult := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("load_%dx", mult), func(b *testing.B) {
			var (
				next     atomic.Int64
				mu       sync.Mutex
				admitted []time.Duration
				shed     []time.Duration
			)
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < mult; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var okLocal, shedLocal []time.Duration
					for next.Add(1) <= int64(b.N) {
						req := httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body))
						w := httptest.NewRecorder()
						start := time.Now()
						s.ServeHTTP(w, req)
						d := time.Since(start)
						switch w.Code {
						case http.StatusOK:
							okLocal = append(okLocal, d)
						case http.StatusTooManyRequests:
							shedLocal = append(shedLocal, d)
						default:
							b.Errorf("unexpected status %d", w.Code)
							return
						}
					}
					mu.Lock()
					admitted = append(admitted, okLocal...)
					shed = append(shed, shedLocal...)
					mu.Unlock()
				}()
			}
			wg.Wait()
			b.StopTimer()
			if len(admitted) == 0 {
				b.Fatal("no requests admitted")
			}
			ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
			b.ReportMetric(ms(percentile(admitted, 0.50)), "p50_ms")
			b.ReportMetric(ms(percentile(admitted, 0.95)), "p95_ms")
			b.ReportMetric(ms(percentile(admitted, 0.99)), "p99_ms")
			b.ReportMetric(float64(len(shed))/float64(len(admitted)+len(shed)), "shed_frac")
			if len(shed) > 0 {
				b.ReportMetric(ms(percentile(shed, 0.99)), "shed_p99_ms")
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(len(admitted)+len(shed))/sec, "req/s")
			}
		})
	}
}
