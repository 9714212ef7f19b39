package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// The machine this benchmark is meant for is shared: its speed drifts by
// 10-50% over seconds to minutes, and every workload slows and speeds up
// with it, so timings as measured vary from run to run by more than a
// regression bound can allow. Each run therefore samples the machine's
// speed around every repeat of its measurement: the benchmark's own process
// stops the processes doing the work (SIGSTOP), times a fixed reference
// computation that uses nothing from facile, and lets them continue. Each
// repeat's timings are reported at the reference speed, where that
// computation takes refCalibMS: scaled by the mean of the samples taken
// from the repeat's start to its end. A metric is then the midmean over the
// repeats. The values as measured are kept as "measured." extras. The work
// is stopped while the reference runs, so nothing a change leaves running —
// a collection, a background goroutine — slows the reference and hides its
// own cost.
//
// The reference runs on one thread. Timed alternately with cold and warm
// engine work for 15 minutes on the 2-vCPU machine, its time correlated
// with theirs (0.77 and 0.92 over 20 s windows) better than the same
// computation on every CPU at once (0.64 and 0.87), a pointer chase over
// 8 MiB, a multiply loop or a JSON round trip.
const refCalibMS = 2.0

// calibReps is how many timed runs of the reference computation a speed
// sample makes, after one untimed run that brings its table back into the
// cache.
const calibReps = 3

// calibBuffers is one thread's buffers for the reference computation,
// allocated once so the computation allocates nothing and does not depend
// on the garbage collector.
type calibBuffers struct {
	table      []uint64 // 1 MiB, beyond L2
	sort, work []uint64
	hash       []byte
	sink       byte
}

func newCalibBuffers() *calibBuffers {
	return &calibBuffers{
		table: make([]uint64, 1<<17),
		sort:  make([]uint64, 1<<13),
		work:  make([]uint64, 1<<13),
		hash:  make([]byte, 1<<16),
	}
}

// run times the reference computation: random updates of a 1 MiB table, a
// sort and SHA-256.
func (b *calibBuffers) run() time.Duration {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 1<<18; i++ {
		v := next()
		b.table[v&(1<<17-1)] += v
	}
	for i := range b.sort {
		b.sort[i] = next()
	}
	copy(b.work, b.sort)
	slices.Sort(b.work)
	for i := 0; i < 4; i++ {
		sum := sha256.Sum256(b.hash)
		b.sink ^= sum[0]
		b.hash[i] = sum[1]
	}
	return time.Since(t0)
}

// speedLog takes one workload run's speed samples in the benchmark's own
// process and keeps them all.
type speedLog struct {
	bufs *calibBuffers
	ms   []float64
}

func newSpeedLog() *speedLog { return &speedLog{bufs: newCalibBuffers()} }

// sample stops the processes pids, times the reference computation while
// they are stopped, continues them, and returns the mean time of one
// reference run in ms.
func (l *speedLog) sample(pids ...int) (ms float64, err error) {
	defer func() {
		for _, pid := range pids {
			if cerr := syscall.Kill(pid, syscall.SIGCONT); cerr != nil && err == nil {
				err = fmt.Errorf("continue process %d: %w", pid, cerr)
			}
		}
	}()
	for _, pid := range pids {
		if err := syscall.Kill(pid, syscall.SIGSTOP); err != nil {
			return 0, fmt.Errorf("stop process %d: %w", pid, err)
		}
	}
	for _, pid := range pids {
		if err := waitStopped(pid); err != nil {
			return 0, err
		}
	}
	l.bufs.run()
	var total time.Duration
	for range calibReps {
		total += l.bufs.run()
	}
	ms = float64(total.Nanoseconds()) / 1e6 / calibReps
	l.ms = append(l.ms, ms)
	return ms, nil
}

// waitStopped waits until every thread of process pid has stopped.
func waitStopped(pid int) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		ok, err := allStopped(pid)
		if err != nil || ok {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("process %d did not stop within 2s", pid)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// allStopped reports whether every thread of process pid is in the stopped
// state, from /proc.
func allStopped(pid int) (bool, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return false, fmt.Errorf("threads of process %d: %w", pid, err)
	}
	for _, t := range tasks {
		stat, err := os.ReadFile(filepath.Join(dir, t.Name(), "stat"))
		if errors.Is(err, os.ErrNotExist) {
			return false, nil // a thread exited since the listing: look again
		}
		if err != nil {
			return false, err
		}
		// The state follows the parenthesized command name.
		i := bytes.LastIndexByte(stat, ')')
		if i < 0 || i+2 >= len(stat) {
			return false, fmt.Errorf("unreadable %s/%s/stat", dir, t.Name())
		}
		if s := stat[i+2]; s != 'T' && s != 't' {
			return false, nil
		}
	}
	return true, nil
}

// speedMeter brackets the repeats of one measurement with speed samples.
type speedMeter struct {
	take func() (float64, error) // one sample, in ms of the reference computation
	ms   []float64
	from int // the current repeat's first sample
}

// meter returns a speed meter for a measurement whose work runs in the
// processes pids. In a re-executed child, each sample is the parent's,
// taken with the child stopped.
func (cfg *config) meter(pids ...int) *speedMeter {
	if cfg.pause != nil {
		return &speedMeter{take: cfg.pause}
	}
	return &speedMeter{take: func() (float64, error) { return cfg.speed.sample(pids...) }}
}

// sample takes one speed sample; a repeat that lasts long takes some
// between its parts, off its clock.
func (m *speedMeter) sample() error {
	ms, err := m.take()
	m.ms = append(m.ms, ms)
	return err
}

// begin starts a repeat with a sample.
func (m *speedMeter) begin() error {
	m.from = len(m.ms)
	return m.sample()
}

// end closes a repeat with a sample and returns how many times slower than
// the reference speed the machine ran over it: the mean of the repeat's
// samples over refCalibMS.
func (m *speedMeter) end() (float64, error) {
	if err := m.sample(); err != nil {
		return 0, err
	}
	var sum float64
	for _, ms := range m.ms[m.from:] {
		sum += ms
	}
	return sum / float64(len(m.ms)-m.from) / refCalibMS, nil
}

// repeatProbe brackets each repeat of a measurement: it samples the
// machine's speed around it and reads the peak resident set of the process
// doing the work over it.
type repeatProbe struct {
	pid      int
	speed    *speedMeter
	slows    []float64 // each repeat's slowdown, from speed
	peaks    []float64 // MiB
	resetErr error     // why a peak could not be reset, if one could not
}

func newRepeatProbe(pid int, speed *speedMeter) *repeatProbe {
	return &repeatProbe{pid: pid, speed: speed}
}

// begin starts a repeat. Where the peak cannot be reset, each repeat's
// peak is the process's peak so far, and record says so.
func (p *repeatProbe) begin() error {
	if err := p.speed.begin(); err != nil {
		return err
	}
	if err := resetPeakRSS(p.pid); err != nil && p.resetErr == nil {
		p.resetErr = err
	}
	return nil
}

// end finishes a repeat and returns its slowdown.
func (p *repeatProbe) end() (float64, error) {
	rss, err := vmHWM(p.pid)
	if err != nil {
		return 0, err
	}
	p.peaks = append(p.peaks, rss)
	slow, err := p.speed.end()
	p.slows = append(p.slows, slow)
	return slow, err
}

// record stores peak_rss_mb, the midmean over the repeats of each one's
// peak.
func (p *repeatProbe) record(res *result) {
	note := "each repeat's peak resident set"
	if p.resetErr != nil {
		note = fmt.Sprintf("the process's peak resident set so far (%v)", p.resetErr)
	}
	res.setRepeated("peak_rss_mb", "MiB", p.peaks, 0, note)
}

// calibMetric is the extra that carries a run's mean reference time.
const calibMetric = "machine.calib_ms"

// measuredPrefix marks the extra that holds a timing as measured.
const measuredPrefix = "measured."

// Directions of a timing: a rate measured on a slow machine reads low, a
// duration high.
const (
	asRate     = +1
	asDuration = -1
)

// atReference is v, measured while the machine ran slow times slower than
// the reference speed, at the reference speed.
func atReference(v, slow float64, dir int) float64 {
	if dir == asRate {
		return v * slow
	}
	return v / slow
}

// setTiming records an end-to-end timing from each repeat's value as
// measured and the machine's slowdown over that repeat: the metric is the
// midmean of the repeats' values at the reference speed, the extra
// "measured.<name>" the midmean as measured.
func (r *result) setTiming(name, unit string, dir int, measured, slows []float64, samples int, note string) {
	ref := make([]float64, len(measured))
	for i, v := range measured {
		ref[i] = atReference(v, slows[i], dir)
	}
	r.setRepeated(name, unit, ref, samples, joinNotes(note, "at the reference speed"))
	r.Extra[measuredPrefix+name] = value{Value: midmean(measured), Unit: unit, Samples: samples, Repeats: measured}
}

// recordSpeed stores the mean of a workload run's speed samples.
func (r *result) recordSpeed(l *speedLog) {
	if len(l.ms) == 0 {
		return
	}
	var sum float64
	for _, ms := range l.ms {
		sum += ms
	}
	r.Extra[calibMetric] = value{Value: sum / float64(len(l.ms)), Unit: "ms", Samples: len(l.ms)}
}
