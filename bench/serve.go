package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serveProc is one facile-serve subprocess on a loopback port.
type serveProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	exited chan struct{}
	err    error // the process's exit status, once exited is closed
}

// bootServer starts facile-serve and waits until /healthz answers. procs
// sets the subprocess's GOMAXPROCS.
func bootServer(bin string, procs int, args ...string) (*serveProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &serveProc{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	s.cmd.Stderr = &s.stderr
	s.cmd.SysProcAttr = diesWithParent()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start facile-serve: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("facile-serve exited during boot (%v): %s", s.err, s.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("facile-serve not healthy after 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// diesWithParent makes a subprocess get SIGKILL if the benchmark dies first,
// so a killed run leaves no server or child behind.
func diesWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// freeAddr returns a loopback address whose port was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// vmHWM reads a process's peak resident set size in MiB from /proc.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuNS returns the CPU time the threads of process pid have used, in ns,
// from /proc/<pid>/task/*/schedstat. Unlike a process's utime and stime,
// which count in 10 ms ticks, schedstat counts nanoseconds.
func cpuNS(pid int) (int64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("threads of process %d: %w", pid, err)
	}
	var total int64
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if errors.Is(err, os.ErrNotExist) {
			continue // the thread exited since the listing
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("unreadable %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		total += ns
	}
	return total, nil
}

// resetPeakRSS restarts a process's peak resident set (VmHWM) from its
// current size, so a repeat of a measurement reads its own peak.
func resetPeakRSS(pid int) error {
	if err := os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// metrics scrapes /metrics into a map from series (name plus labels) to
// value.
func (s *serveProc) metrics() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// serverCounters derives, from two /metrics scrapes, the share of analysis
// requests admission control shed (0 without admission control) and the
// mean micro-batch size (0 when no micro-batch ran).
func serverCounters(m0, m1 map[string]float64) (shedFrac, microBatch float64) {
	d := func(k string) float64 { return m1[k] - m0[k] }
	var shed float64
	for k := range m1 {
		if strings.HasPrefix(k, "facile_admission_shed_total{") {
			shed += d(k)
		}
	}
	if total := shed + d("facile_admission_admitted_total"); total > 0 {
		shedFrac = shed / total
	}
	if batches := d("facile_microbatch_batches_total"); batches > 0 {
		microBatch = d("facile_microbatch_blocks_total") / batches
	}
	return shedFrac, microBatch
}

// setServer records the per-layer counters of a phase against a server,
// from /metrics scrapes before (m0) and after (m1) it; blocks is how many
// blocks the phase asked for.
func (r *result) setServer(m0, m1 map[string]float64, blocks float64) {
	d := func(k string) float64 { return m1[k] - m0[k] }
	r.setCache(d("facile_engine_cache_hits_total"), d("facile_engine_cache_misses_total"),
		d("facile_engine_cache_evictions_total"), int(blocks))
	shed, mb := serverCounters(m0, m1)
	r.Layers["server.shed_frac"] = value{Value: shed, Unit: "fraction"}
	r.Layers["server.microbatch_size_mean"] = value{Value: mb, Unit: "blocks"}
}

// stop shuts the subprocess down gracefully (SIGTERM), killing it if it has
// not exited within five seconds, and waits for it to exit.
func (s *serveProc) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// post sends one request on client and returns the response body, read
// into buf. A non-2xx status is an error.
func post(ctx context.Context, client *http.Client, url string, body []byte, buf *bytes.Buffer) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), nil
}

// clientsN returns n single-connection clients.
func clientsN(n int) []*http.Client {
	out := make([]*http.Client, n)
	for i := range out {
		out[i] = newClient()
	}
	return out
}

// closeClients drops the clients' idle connections, so the next phase
// connects afresh.
func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// newClient returns an HTTP client holding at most one keep-alive
// connection: the load generator gives each of its workers its own, so the
// connection count equals the worker count.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}
