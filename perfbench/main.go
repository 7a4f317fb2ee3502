// Command perfbench is Gremlin's end-to-end benchmark. It builds an
// in-process Gremlin deployment on loopback, drives one named workload
// against it for a fixed time, checks every output, and prints each metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload hop-small --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run. With
// --trace 1 it runs the workload untraced, then again with spans around the
// calls into each layer, and reports the per-layer metrics; the spans are
// written under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// conns bounds the load generator's connections (nproc).
	conns int
}

// result is what a workload reports.
type result struct {
	attempted int
	failed    int
	// problems lists failed output checks; any entry makes the run
	// incorrect.
	problems []string
	metrics  map[string]float64
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

// failf records a failed output check.
func (r *result) failf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check records a failed output check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failf(format, args...)
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(cfg config) (*result, error){
	"hop-small":     runHopSmall,
	"hop-faulted":   runHopFaulted,
	"stream-bulk":   runStreamBulk,
	"campaign-tree": runCampaignTree,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload name: hop-small, hop-faulted, stream-bulk or campaign-tree")
		seed     = fs.Int64("seed", 1, "workload seed")
		seconds  = fs.Float64("seconds", 10, "measured seconds")
		trace    = fs.Int("trace", 0, "1 runs the traced per-layer run, 0 the end-to-end run")
		out      = fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result stamps and spans")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	drive, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		out:      *out,
		conns:    runtime.NumCPU(),
	}
	host := stampHost()
	fmt.Printf("host %s\n", mustJSON(host))

	res, err := drive(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := finalLine{
		Correct:   len(res.problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s did not measure %s", cfg.workload, d.name)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("metric %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	stamp := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": cfg.trace, "host": host, "result": line,
		"problems": res.problems, "time": time.Now().UTC().Format(time.RFC3339),
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, *trace)
	if err := os.WriteFile(filepath.Join(cfg.out, name), append(mustJSON(stamp), '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println(string(mustJSON(line)))
	return nil
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, structs and finite numbers are marshalled
	}
	return b
}

// sortedKeys returns m's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
