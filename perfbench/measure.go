package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// hostStamp identifies where and on what code a result was measured.
type hostStamp struct {
	CPUModel   string `json:"cpuModel"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
	Link       string `json:"link"`
}

func stampHost() hostStamp {
	return hostStamp{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commitID(),
		Link:       "loopback",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitID names the code under test: the git commit when the working
// directory is a checkout with .git, otherwise a SHA-256 over go.mod and
// every .go file, so an exported tree is still identified.
func commitID() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				return strings.TrimSpace(string(id))
			}
		} else if ref != "" {
			return ref
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || path == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		_, _ = io.WriteString(h, path+"\x00")
		_, _ = io.Copy(h, f)
		return nil
	})
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// usage is a process resource snapshot.
type usage struct {
	wall   time.Time
	cpu    time.Duration // user + system
	allocs uint64        // runtime.MemStats.Mallocs
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:   time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: ms.Mallocs,
	}
}

// cost is the resource use between two snapshots.
type cost struct {
	wall, cpu time.Duration
	allocs    uint64
}

func since(before usage) cost {
	after := readUsage()
	return cost{wall: after.wall.Sub(before.wall), cpu: after.cpu - before.cpu, allocs: after.allocs - before.allocs}
}

func (c cost) add(o cost) cost {
	return cost{wall: c.wall + o.wall, cpu: c.cpu + o.cpu, allocs: c.allocs + o.allocs}
}

// cpuMsPer and allocsPer divide the cost by ops.
func (c cost) cpuMsPer(ops float64) float64  { return ms(c.cpu) / ops }
func (c cost) allocsPer(ops float64) float64 { return float64(c.allocs) / ops }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. Empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// runtimeSampler tracks Go runtime figures over a measured window: GC CPU
// share and cycles from runtime/metrics deltas, and heap and goroutine
// peaks sampled every 20 ms.
type runtimeSampler struct {
	stop chan struct{}
	done chan struct{}

	mu        sync.Mutex
	heapPeak  float64
	goroPeak  float64
	startVals []metrics.Sample
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes",
	"/sched/goroutines:goroutines",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func startRuntimeSampler() *runtimeSampler {
	rs := &runtimeSampler{stop: make(chan struct{}), done: make(chan struct{}), startVals: readRuntime()}
	go func() {
		defer close(rs.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			rs.observe(readRuntime())
			select {
			case <-rs.stop:
				return
			case <-t.C:
			}
		}
	}()
	return rs
}

func (rs *runtimeSampler) observe(s []metrics.Sample) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.heapPeak = math.Max(rs.heapPeak, sampleValue(s[3]))
	rs.goroPeak = math.Max(rs.goroPeak, sampleValue(s[4]))
}

// finish stops the sampler and writes the go.* metrics for ops operations.
func (rs *runtimeSampler) finish(m map[string]float64, ops float64) {
	close(rs.stop)
	<-rs.done
	end := readRuntime()
	rs.observe(end)
	delta := func(i int) float64 { return sampleValue(end[i]) - sampleValue(rs.startVals[i]) }
	if total := delta(1); total > 0 {
		m["go.gc_cpu_fraction"] = delta(0) / total
	}
	if ops > 0 {
		m["go.gc_cycles_per_kop"] = delta(2) / ops * 1000
	}
	m["go.heap_peak_MiB"] = rs.heapPeak / (1 << 20)
	m["go.goroutines_peak"] = rs.goroPeak
}

// quiesce settles the process before a measured phase: it collects the
// previous phase's garbage and lets background work (log shipping, closing
// connections) drain, so a phase's figures do not depend on what ran
// before it.
func quiesce() {
	runtime.GC()
	time.Sleep(100 * time.Millisecond)
}

// rounds collects per-round figures by metric name; a workload reports
// the median of each.
type rounds map[string][]float64

func newRounds() rounds { return make(rounds) }

func (r rounds) add(name string, v float64) { r[name] = append(r[name], v) }

// report writes the median of every collected figure into m.
func (r rounds) report(m map[string]float64) {
	for name, vs := range r {
		m[name] = median(vs)
	}
}

// rssSampler tracks the process's resident set during the measured
// phases, read from /proc/self/statm every 10 ms. It starts from a heap
// with set-up's garbage returned to the OS, so the peak belongs to the
// measured work rather than to how set-up's garbage happened to be
// collected.
type rssSampler struct {
	done, stopped chan struct{}
	once          sync.Once
	peak          atomic.Int64 // bytes
}

func startRSSSampler() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{done: make(chan struct{}), stopped: make(chan struct{})}
	s.observe()
	go func() {
		defer close(s.stopped)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-t.C:
				s.observe()
			}
		}
	}()
	return s
}

func (s *rssSampler) observe() {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return
	}
	if b := pages * int64(os.Getpagesize()); b > s.peak.Load() {
		s.peak.Store(b)
	}
}

func (s *rssSampler) stop() {
	s.once.Do(func() { close(s.done) })
	<-s.stopped
}

// peakMiB stops the sampler and returns the peak resident set in MiB.
func (s *rssSampler) peakMiB() float64 {
	s.stop()
	s.observe()
	return float64(s.peak.Load()) / (1 << 20)
}

// timedSetup runs build n times, closing all but the last deployment, and
// returns the last one with the median set-up time in seconds.
func timedSetup[T interface{ Close() error }](n int, build func() (T, error)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			_ = last.Close() // a discarded set-up; its teardown is not measured
		}
		start := time.Now()
		d, err := build()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = d
	}
	return last, median(times), nil
}
