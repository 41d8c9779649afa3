//go:build linux

// Command bench is the repository's end-to-end benchmark. It runs one
// of four workloads — figures, attrib, simd-hot, simd-churn — against
// the simulator the way its users drive it, checks every output, and
// reports the end-to-end metrics BENCHMARK.json lists. A traced run
// instead reports the per-layer metrics: it times the public API of
// each layer from outside (layer probes) and records spans around the
// benchmark's calls into the layers.
//
// Run it from the repository root through bench/run.sh, which builds
// this command and cmd/simd first:
//
//	bash bench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//	bash bench/run.sh --runs N [--workload NAME] [--seconds S]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 0 only if
// every output was correct. --runs N repeats the untraced run N times
// per workload in fresh processes, with seeds 1..N, and prints each
// metric's median, quartiles and spread.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// buildDir holds everything a run leaves behind: binaries, temporary
// cache directories and span files. bench/run.sh builds into it.
const buildDir = ".bench_build"

// setupRounds is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not decide the metric.
const setupRounds = 3

// workload is one benchmark input: a traffic mix and the code it drives.
type workload struct {
	name  string
	setup func(e *env) (instance, error)
}

// instance is one set-up workload, ready to measure.
type instance interface {
	// measure runs the timed load for d and returns end-to-end metrics.
	measure(d time.Duration, tr *tracer) (map[string]float64, error)
	// finish runs the untimed checks and stops the load's processes.
	finish() error
	// close releases processes and directories; safe after finish and
	// on every error path.
	close()
}

var workloads = []workload{
	{name: "figures", setup: setupFigures},
	{name: "attrib", setup: setupAttrib},
	{name: "simd-hot", setup: setupSimdHot},
	{name: "simd-churn", setup: setupSimdChurn},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what one run shares with its workload and probes.
type env struct {
	seed uint64
	tmp  string // per-run scratch directory under buildDir, removed at exit
	simd string // the simd binary bench/run.sh built
	t    *tally
}

// tally counts checked operations and failed checks. Every failure is
// also reported on standard error (the first few in full).
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	logged            int
}

func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted.Add(1)
	if ok {
		return true
	}
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.logged < 20 {
		fmt.Fprintf(os.Stderr, "bench: check failed: "+format+"\n", args...)
	}
	t.logged++
	return false
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark checks its output
// against: every metric it reports must be listed there with its unit.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec() (*spec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// label attaches units to measured values, and fails unless the values
// are exactly the metrics the spec lists.
func label(values map[string]float64, want []specMetric) (map[string]metricOut, error) {
	out := make(map[string]metricOut, len(want))
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s listed in BENCHMARK.json was not measured", m.Name)
		}
		out[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not listed in BENCHMARK.json", name)
		}
	}
	return out, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: figures, attrib, simd-hot or simd-churn")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Int("seconds", 0, "measured seconds per run (0 = run_seconds from BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and the self-time table")
	runs := flag.Int("runs", 0, "repeat the untraced run N times per workload (seeds 1..N) and print spreads")
	flag.Parse()

	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = sp.RunSeconds
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *runs > 0 {
		return repeat(*runs, *name, *seconds)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown --workload %q (figures, attrib, simd-hot, simd-churn)\n", *name)
		return 2
	}

	e := &env{seed: *seed, simd: filepath.Join(buildDir, "bin", "simd"), t: &tally{}}
	if _, err := os.Stat(e.simd); err != nil {
		fmt.Fprintln(os.Stderr, "bench: simd binary missing; run through bench/run.sh:", err)
		return 2
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	e.tmp, err = os.MkdirTemp(filepath.Join(buildDir, "tmp"), w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(e.tmp)

	d := time.Duration(*seconds) * time.Second
	var values map[string]float64
	want := sp.EndToEnd
	if *trace == 1 {
		values, err = tracedRun(e, w, d)
		want = sp.PerLayer
	} else {
		values, err = timedRun(e, w, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	metrics, err := label(values, want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res := result{
		Attempted: e.t.attempted.Load(),
		Failed:    e.t.failed.Load(),
		Metrics:   metrics,
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// setUp sets the workload up setupRounds times — the golden check plus
// the workload's own set-up each time — keeps the last instance and
// returns the median set-up time and the last golden check.
func setUp(e *env, w workload, rounds int, tr *tracer) (instance, golden, float64, error) {
	var times []float64
	var inst instance
	var g golden
	for i := 0; i < rounds; i++ {
		if inst != nil {
			inst.close()
		}
		root := tr.root("bench.setup", int64(-1-i), 0)
		start := time.Now()
		var err error
		g, err = checkGolden(e.t, root)
		if err == nil {
			inst, err = w.setup(e)
		}
		times = append(times, time.Since(start).Seconds())
		root.end()
		if err != nil {
			if inst != nil {
				inst.close()
			}
			return nil, golden{}, 0, err
		}
	}
	return inst, g, median(times), nil
}

// timedRun is the untraced run: set up, measure for d, finish.
func timedRun(e *env, w workload, d time.Duration) (map[string]float64, error) {
	inst, _, setupS, err := setUp(e, w, setupRounds, nil)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	m, err := inst.measure(d, nil)
	if err != nil {
		return nil, err
	}
	if err := inst.finish(); err != nil {
		return nil, err
	}
	m["setup_s"] = setupS
	return m, nil
}

// tracedRun measures the workload for d/2 untraced and d/2 traced —
// the difference is the tracing overhead — then runs every layer probe
// under the same tracer. It writes the spans file, prints the
// self-time table and returns the per-layer metrics.
func tracedRun(e *env, w workload, d time.Duration) (map[string]float64, error) {
	tr := newTracer()
	inst, g, setupS, err := setUp(e, w, 1, tr)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	plain, err := inst.measure(d/2, nil)
	if err != nil {
		return nil, err
	}
	passStart := time.Now()
	traced, err := inst.measure(d/2, tr)
	if err != nil {
		return nil, err
	}
	passWall := time.Since(passStart)
	if err := inst.finish(); err != nil {
		return nil, err
	}
	inst.close()

	probeStart := time.Now()
	values, err := runProbes(e, tr)
	if err != nil {
		return nil, err
	}
	probeWall := time.Since(probeStart)
	for id, s := range g.figureS {
		values["core.figure_s."+id] = s
	}
	values["runtime.gc_cpu_frac"] = g.gcFrac

	dir := filepath.Join(buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, w.name+".spans.json")
	if err := tr.writeChrome(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	tr.printSelfTimes(os.Stdout, w.name+" traced pass", passWall,
		func(op int64) bool { return op > 0 && op < probeOp })
	tr.printSelfTimes(os.Stdout, w.name+" set-up and layer probes", time.Duration(setupS*float64(time.Second))+probeWall,
		func(op int64) bool { return op <= 0 || op >= probeOp })
	fmt.Printf("spans written to %s\n", path)
	rate := "vsec_per_s"
	fmt.Printf("trace_overhead_frac %.4f (%s untraced %.4g, traced %.4g)\n",
		(plain[rate]-traced[rate])/plain[rate], rate, plain[rate], traced[rate])
	return values, nil
}

// repeat runs every selected workload n times in fresh processes, in a
// rotating order so no workload always runs first, and prints each
// end-to-end metric's median, quartiles and spread ((q3-q1)/median).
func repeat(n int, only string, seconds int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var names []string
	for _, w := range workloads {
		if only == "" || only == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown --workload %q\n", only)
		return 2
	}
	values := map[string]map[string][]float64{}
	status := 0
	for i := 0; i < n; i++ {
		for j := range names {
			name := names[(i+j)%len(names)]
			res, err := runChild(self, name, uint64(i+1), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", name, i+1, err)
				status = 1
				continue
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			keys := make([]string, 0, len(res.Metrics))
			for k := range res.Metrics {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				values[name][k] = append(values[name][k], res.Metrics[k].Value)
			}
			fmt.Printf("run %d/%d %s seed %d: attempted %d failed %d\n", i+1, n, name, i+1, res.Attempted, res.Failed)
		}
	}
	fmt.Printf("%-11s %-16s %12s %12s %12s %8s\n", "workload", "metric", "median", "q1", "q3", "spread")
	for _, name := range names {
		var keys []string
		for k := range values[name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			q1, q2, q3 := quartiles(values[name][k])
			fmt.Printf("%-11s %-16s %12.5g %12.5g %12.5g %8.4f\n", name, k, q2, q1, q3, (q3-q1)/q2)
		}
	}
	return status
}

// runChild runs one untraced benchmark run in a fresh process and
// parses its result line.
func runChild(self, name string, seed uint64, seconds int) (result, error) {
	out, err := childCommand(self, "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0").Output()
	var res result
	lines := splitLines(out)
	if len(lines) > 0 {
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil && err == nil {
			err = jerr
		}
	}
	if err == nil && !res.Correct {
		err = errors.New("incorrect output")
	}
	return res, err
}
