// Command perfbench is the repository's end-to-end benchmark. It drives
// the APT-GET simulator pipeline in-process and the aptgetd plan service
// as a separate process, checks every output against an in-process
// reference, and prints one JSON result line:
//
//	perfbench --workload pipeline --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the workload runs partly untraced and partly with spans
// recorded around each call into the program's modules, and the result
// carries the per-layer metrics. perfbench/run.sh builds this command from source and runs it
// from the root of a checkout; README.md in this directory lists the
// workloads, the metrics, and which layer metric should move which
// end-to-end metric.
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

// env is what every workload receives: the run's parameters, where to
// put build outputs, and the span recorder (nil in untraced runs).
type env struct {
	seed    int64
	seconds time.Duration
	root    string // checkout root: the aptget module
	out     string // build and trace outputs (.bench_build)
	conns   int    // load-generator connections: one per CPU
	rec     *recorder
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// check records one checked output. A wrong output is counted, reported
// on stderr, and makes the run incorrect.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: wrong output: "+format+"\n", args...)
	}
}

var workloadFuncs = map[string]func(*env, *result) error{
	"pipeline":    runPipeline,
	"serve-hit":   func(e *env, r *result) error { return runServe(e, r, modeHit) },
	"serve-drift": func(e *env, r *result) error { return runServe(e, r, modeDrift) },
}

// endToEnd and perLayer name the metrics of an untraced and a traced
// result, as BENCHMARK.json lists them. Every workload reports all of
// them; a run that misses one, or measures one as NaN or infinite,
// prints no result.
var (
	endToEnd = []string{"setup_s", "cpu_ms_per_op", "rss_mb"}
	perLayer = []string{
		"cpu.ns_per_instr", "cpu.instructions", "cpu.cycles",
		"mem.ns_per_access.l1", "mem.ns_per_access.l2", "mem.ns_per_access.llc", "mem.ns_per_access.dram",
		"mem.demand_accesses", "mem.hits.l1", "mem.hits.l2", "mem.hits.llc", "mem.hits.fb", "mem.hits.dram",
		"workloads.build_ms", "profile.collect_ms", "profile.lbr_samples", "profile.delinquent_loads",
		"analysis.analyze_ms", "analysis.plans", "analysis.outer_sites", "analysis.fallbacks",
		"passes.inject_ms", "passes.prefetches_injected",
		"wire.hash_ms", "wire.decode_ms", "wire.decode_mb_per_s", "wire.plan_decode_us", "wire.plan_encode_us",
		"planstore.get_us", "planstore.hits", "planstore.stale_matches", "planstore.misses", "planstore.evictions",
		"service.handler_ms", "op.wall_ms", "trace.overhead_pct",
	}
)

// complete reports whether res holds exactly the metrics names lists,
// each a finite number.
func complete(res *result, names []string) error {
	if len(res.Metrics) != len(names) {
		return fmt.Errorf("%d metrics measured, %d expected", len(res.Metrics), len(names))
	}
	for _, n := range names {
		m, ok := res.Metrics[n]
		if !ok {
			return fmt.Errorf("metric %s not measured", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s measured as %v", n, m.Value)
		}
	}
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: pipeline, serve-hit, serve-drift")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	flag.Parse()
	fn, ok := workloadFuncs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloadFuncs))
		for n := range workloadFuncs {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: --workload must be one of %v, --seconds ≥ 1, --trace 0|1\n", names)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the root of an aptget checkout")
		return 1
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		root:    root,
		out:     filepath.Join(root, ".bench_build"),
		conns:   runtime.NumCPU(),
	}
	if *trace == 1 {
		e.rec = newRecorder()
	}
	var res result
	if err := fn(e, &res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if e.rec != nil {
		path := filepath.Join(e.out, "trace", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := e.rec.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	res.Correct = res.Failed == 0
	if res.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no output was checked")
		return 1
	}
	names := endToEnd
	if e.rec != nil {
		names = perLayer
	}
	if err := complete(&res, names); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
