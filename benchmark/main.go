// Command benchmark is the repository's two-clock benchmark: five
// closed-loop workloads driven through the program's public APIs, each
// reporting what a user of the simulated cluster sees (virtual time,
// bytes on the wire) and what a user of the simulator pays (host time,
// allocations, memory). A separate traced run attributes both clocks to
// the program's layers. README.md defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

var workloads = []*workload{
	{
		name: "tsi-stream", build: buildTSIStream,
		why: "warm cached 26 B frames in whole-queue drains: fixed per-message cost of sim, fabric, ucx and the send path is everything",
	},
	{
		name: "tsi-paper", build: buildTSIPaper, verify: verifyPaper,
		why: "the paper's Section V method, all five modes on three profiles at one frame per poll, with 5 KB full frames and the AM path",
	},
	{
		name: "cold-deploy", build: buildDeploy,
		why: "every op compiles, registers and ships a never-seen kernel to four nodes of two ISAs: toolchain, JIT, lowering, verifier, linker and store do the work",
	},
	{
		name: "offload-mix", build: buildOffload,
		why: "planner-routed concurrent offload streams on 64 nodes with a store smaller than the working set: place, the pull route, the region cache, delta write-back and eviction",
	},
	{
		name: "dapc-chase", build: buildDAPC,
		why: "the paper's pointer chase on a Xeon client and 8 BlueField-2 servers: guest-initiated forwarding and a looping kernel on two ISAs",
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (tsi-stream, tsi-paper, dapc-chase, cold-deploy, offload-mix)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", runSeconds, "length of the timed section, in calibrated seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run in place of the timed run")
	selfcheck := fs.Bool("selfcheck", false, "run every workload twice and compare the two sets of metrics")
	outDir := fs.String("out", "benchmark/out", "directory the traced run writes its two trace files to")
	desc := fs.Bool("describe", false, "print the BENCHMARK.json this program implements and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	if *desc {
		doc, err := describe()
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		stdout.Write(doc)
		return 0
	}
	if *selfcheck {
		return selfCheck(*seed, *seconds, stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	var res *result
	var err error
	if *trace != 0 {
		res, err = tracedRun(w, *seed, *outDir, stdout)
	} else {
		res, err = timedRun(w, *seed, *seconds, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// setUp builds the workload's world several times and returns the last
// one with the median build time in seconds: at least setupRepeats
// builds, and as many as fit in setupBudget up to maxSetupRepeats.
func setUp(w *workload, e *env) (world, float64, error) {
	var wd world
	var builds []float64
	var total time.Duration
	for n := 0; n < setupRepeats || (total < size.setupBudget && n < maxSetupRepeats); n++ {
		// Every build starts from a heap with nothing free to reuse, so
		// each pays the same page faults for its node memories.
		wd = nil
		debug.FreeOSMemory()
		t0 := now()
		var err error
		wd, err = w.build(e)
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		d := since(t0)
		total += d
		builds = append(builds, d.Seconds())
	}
	return wd, median(builds), nil
}

// warmUp runs and checks the unmeasured rounds and returns how many
// operations failed.
func warmUp(wd world) (int, error) {
	m, err := runRounds(wd, warmRounds, nil, nil)
	if err != nil {
		return 0, err
	}
	return m.failures(), nil
}

// timedRun is the end-to-end measurement: set-up, warm-up, the timed
// rounds with nothing attached, one latency pass with observers
// attached, and the output checks.
func timedRun(w *workload, seed int64, seconds int, out io.Writer) (*result, error) {
	wd, setupS, err := setUp(w, &env{seed: seed})
	if err != nil {
		return nil, err
	}
	failed, err := warmUp(wd)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	m, err := runRounds(wd, rounds(seconds), nil, nil)
	if err != nil {
		return nil, err
	}
	heap := liveHeapMiB()
	failed += m.failures()

	// The latency pass comes last so that its observers and their
	// garbage cannot touch a timed round.
	lat, err := wd.latencyPass()
	if err != nil {
		return nil, fmt.Errorf("latency pass: %w", err)
	}
	f, err := wd.check()
	if err != nil {
		return nil, fmt.Errorf("latency pass check: %w", err)
	}
	failed += f
	if len(lat) == 0 {
		return nil, fmt.Errorf("latency pass observed no operation")
	}
	verified := true
	if w.verify != nil {
		if err := w.verify(out); err != nil {
			fmt.Fprintf(out, "  FAILED: %v\n", err)
			verified = false
		}
	}

	ops := float64(m.rounds * m.ops)
	res := &result{
		Attempted: (warmRounds + 1 + m.rounds) * m.ops,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	values := map[string]float64{
		"host_ns_per_op":          m.hostNS(),
		"host_floor_ns_per_op":    m.wallFloor,
		"host_cpu_ns_per_op":      m.cpuNS,
		"host_allocs_per_op":      m.allocs,
		"host_alloc_bytes_per_op": m.bytes,
		"host_live_heap_mb":       heap,
		"virt_us_per_op":          micros(m.delta[cVirtPS]) / ops,
		"virt_p99_us":             quantile(lat, 0.99),
		"wire_bytes_per_op":       float64(m.delta[cBytesSent]) / ops,
		"setup_s":                 setupS,
	}
	for _, em := range endToEnd {
		res.Metrics[em.name] = metric{values[em.name], em.unit}
	}
	res.Correct = res.Failed == 0 && verified

	fmt.Fprintf(out, "workload %s seed %d: %d timed rounds of %d ops, latency pass of %d ops\n",
		w.name, seed, m.rounds, m.ops, len(lat))
	fmt.Fprintf(out, "  host ns per op over %d rounds: median %.2f", m.rounds, m.hostNS())
	if p := tailPercentile(m.rounds); p > 0 {
		fmt.Fprintf(out, ", p%.0f %.2f", 100*p, quantile(m.wallNS, p))
	}
	fmt.Fprintf(out, "; floor of the slices %.2f\n", m.wallFloor)
	fmt.Fprintf(out, "  fail_frac %g (%d of %d)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	printMetrics(out, res.Metrics)
	return res, nil
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-34s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// verifyPaper holds the reproduction of the paper's Tables I-VI to the
// margins of the repository's own TestTSIMatchesPaper.
func verifyPaper(out io.Writer) error {
	pe, err := paperError()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  paper_err_pct %.4f %% (worst cell: %s; latency and rate within %.2f %%, JIT within %.2f %%)\n",
		pe.maxPct, pe.worst, pe.latRatePct, pe.jitPct)
	if pe.latRatePct > 15 || pe.jitPct > 10 {
		return fmt.Errorf("Tables I-VI are reproduced to %.2f %% (latency, rate) and %.2f %% (JIT), outside 15 %% and 10 %%", pe.latRatePct, pe.jitPct)
	}
	return nil
}

// disagreements names the end-to-end metrics on which two runs of one
// seed differ by more than they may: at all for an exact metric, by more
// than its bound for the others.
func disagreements(a, b map[string]metric) []string {
	var bad []string
	for _, m := range endToEnd {
		x, y := a[m.name].Value, b[m.name].Value
		if (m.exact && x != y) || (!m.exact && math.Abs(x-y) > m.bound*math.Min(x, y)) {
			bad = append(bad, m.name)
		}
	}
	return bad
}

// selfCheck runs every workload twice on one seed and fails unless the
// two sets agree: exact metrics to the last bit, the others within
// their bounds.
func selfCheck(seed int64, seconds int, stdout, stderr io.Writer) int {
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, w := range workloads {
			res, err := timedRun(w, seed, seconds, io.Discard)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed\n", w.name, res.Failed, res.Attempted)
				return 1
			}
			sets[i][w.name] = res
		}
	}
	bad := 0
	fmt.Fprintf(stdout, "%-12s %-24s %16s %16s %9s\n", "workload", "metric", "first", "second", "differ")
	for _, w := range workloads {
		a, b := sets[0][w.name].Metrics, sets[1][w.name].Metrics
		for _, m := range endToEnd {
			x, y := a[m.name].Value, b[m.name].Value
			fmt.Fprintf(stdout, "%-12s %-24s %16.8g %16.8g %8.3f%%\n", w.name, m.name, x, y, 100*ratio(math.Abs(x-y), math.Min(x, y)))
		}
		for _, name := range disagreements(a, b) {
			fmt.Fprintf(stdout, "%-12s %-24s DISAGREES\n", w.name, name)
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "benchmark: selfcheck: %d metrics disagree between two runs of the same code\n", bad)
		return 1
	}
	return 0
}
