package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"threechains/internal/mcode"
)

// smokeSize shrinks every round about a hundredfold, so that the whole
// harness, traced run included, runs in seconds.
var smokeSize = sizes{
	minRounds: 2, tsiStreamBursts: 2, tsiPaperBursts: 2, dapcChases: 2,
	deployRound: 8, offloadOpsPerGroup: 24, replayMin: 100 * time.Microsecond,
}

func TestMain(m *testing.M) {
	size = smokeSize
	os.Exit(m.Run())
}

// fingerprint builds a world, runs one checked round and folds
// everything the round produced: outputs, virtual time, bytes, events.
func fingerprint(t *testing.T, w *workload, seed int64, engine string) uint64 {
	t.Helper()
	wd, err := w.build(&env{seed: seed, engine: engine})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	m, err := runRounds(wd, 2, nil, nil)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if n := m.failures(); n != 0 {
		t.Fatalf("%s: %d operations failed their output check", w.name, n)
	}
	h := newHash()
	h.u64(wd.resultHash())
	for _, c := range []int{cVirtPS, cBytesSent, cEvents, cMsgsSent, cSteps, cShip, cPull, cLocal} {
		h.u64(m.delta[c])
	}
	return h.sum()
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := fingerprint(t, w, 1, ""), fingerprint(t, w, 1, ""), fingerprint(t, w, 2, "")
		if a != b {
			t.Errorf("%s: seed 1 gave fingerprints %016x and %016x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same fingerprint %016x", w.name, a)
		}
	}
}

func TestVirtualMetricsIgnoreTheEngine(t *testing.T) {
	for _, w := range workloads {
		def, interp := fingerprint(t, w, 3, ""), fingerprint(t, w, 3, mcode.EngineNameInterp)
		if def != interp {
			t.Errorf("%s: default engine %016x, interpreter %016x", w.name, def, interp)
		}
	}
}

// lastLine runs the program and decodes the final line of its output.
func lastLine(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%v: last line is not a result: %v", args, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%v: correct=%v failed=%d attempted=%d", args, res.Correct, res.Failed, res.Attempted)
	}
	return res, stdout.String()
}

func TestTimedRunPrintsEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloads {
		res, _ := lastLine(t, "--workload", w.name, "--seed", "5", "--seconds", "1", "--trace", "0")
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit || got.Value <= 0 {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.name, m.name, got, m.unit)
			}
		}
	}
}

func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		res, out := lastLine(t, "--workload", w.name, "--seed", "5", "--seconds", "1", "--trace", "1", "-out", dir)
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("%s: %s = %+v, want unit %s", w.name, m.name, got, m.unit)
			}
		}
		if !strings.Contains(out, "equal with and without the sinks: true") {
			t.Errorf("%s: traced and untraced rounds were not compared equal:\n%s", w.name, out)
		}
		for _, kind := range []string{"host", "virt"} {
			raw, err := os.ReadFile(filepath.Join(dir, w.name+"."+kind+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("%s: %s trace is not Chrome trace-event JSON with events: %v", w.name, kind, err)
			}
		}
	}
}

// TestTracedRunFailsWhenSharesExceedTheLimit pins the guard on the
// attribution: shares that sum above size.maxAttributed fail the run.
func TestTracedRunFailsWhenSharesExceedTheLimit(t *testing.T) {
	defer func(old float64) { size.maxAttributed = old }(size.maxAttributed)
	size.maxAttributed = 1e-9
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", "tsi-stream", "--trace", "1", "-out", t.TempDir()}, &stdout, &stderr)
	if code == 0 || !strings.Contains(stderr.String(), "pays for some work twice") {
		t.Errorf("exit %d, stderr %q: want a failure naming the attribution", code, stderr.String())
	}
}

// TestBenchmarkJSON holds the file at the root of the repository to the
// tables of this program: `go run ./benchmark -describe > BENCHMARK.json`.
func TestBenchmarkJSON(t *testing.T) {
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("../BENCHMARK.json differs from `go run ./benchmark -describe`")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) > 8 {
		t.Errorf("%d per-layer, %d end-to-end metrics and %d workloads exceed the schema", len(perLayer), len(endToEnd), len(workloads))
	}
}

func TestSelfCheckFlagsDisagreement(t *testing.T) {
	bound := endToEnd[0].bound // host_ns_per_op
	a := map[string]metric{"virt_us_per_op": {1, "us"}, "host_ns_per_op": {100, "ns"}}
	b := map[string]metric{"virt_us_per_op": {1, "us"}, "host_ns_per_op": {100 * (1 + 0.9*bound), "ns"}}
	if bad := disagreements(a, b); len(bad) != 0 {
		t.Errorf("a difference inside the bound disagrees: %v", bad)
	}
	b["host_ns_per_op"] = metric{100 * (1 + 1.1*bound), "ns"}
	b["virt_us_per_op"] = metric{1.0000001, "us"}
	if bad := disagreements(a, b); len(bad) != 2 {
		t.Errorf("want host_ns_per_op and virt_us_per_op flagged, got %v", bad)
	}
}
