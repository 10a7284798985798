package bench

import (
	"testing"

	"threechains/internal/isa"
	"threechains/internal/mcode"
	"threechains/internal/testbed"
)

// TestEngineVirtualTimeInvariance runs the TSI microbenchmark under
// every execution engine and requires identical simulated metrics: the
// engine choice may only change host wall-clock speed, never the
// virtual-time physics of the model. The rate leg streams enough
// messages to push the adaptive engine past its promotion threshold, so
// the interp→closure promotion is exercised inside the measured window.
func TestEngineVirtualTimeInvariance(t *testing.T) {
	p := testbed.ThorXeon()
	for _, mode := range []TSIMode{TSIActiveMessage, TSIBitcodeCached, TSIBitcodeUncached} {
		p.Engine = mcode.EngineNameClosure
		closure, err := RunTSI(p, mode)
		if err != nil {
			t.Fatalf("%s/closure: %v", mode, err)
		}
		for _, name := range []string{mcode.EngineNameInterp, mcode.EngineNameSuperblock, mcode.EngineNameAdaptive} {
			p.Engine = name
			got, err := RunTSI(p, mode)
			if err != nil {
				t.Fatalf("%s/%s: %v", mode, name, err)
			}
			if closure != got {
				t.Errorf("%s: results diverge across engines:\n closure: %+v\n %s: %+v",
					mode, closure, name, got)
			}
		}
	}
}

// TestCompareEngines smoke-tests the wall-clock comparison harness and
// its core claim: the closure engine is not slower than the interpreter.
func TestCompareEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	rows, err := CompareEngines(isa.XeonE5())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no comparison rows")
	}
	for _, r := range rows {
		if r.Steps <= 0 || r.InterpNs <= 0 || r.ClosureNs <= 0 || r.SuperNs <= 0 {
			t.Errorf("%s: degenerate row %+v", r.Kernel, r)
		}
		if r.Speedup < 1 {
			t.Errorf("%s: closure engine slower than interpreter (%.2fx)", r.Kernel, r.Speedup)
		}
		// The measured margin is ~1.7-2.3x (recorded in
		// BENCH_engines.json); 1.0 here is a noise-proof CI floor.
		if r.SuperSpeedup < 1 {
			t.Errorf("%s: superblock engine slower than closure (%.2fx)", r.Kernel, r.SuperSpeedup)
		}
		t.Logf("%s: interp %.1fns closure %.1fns superblock %.1fns (c/sb %.2fx)",
			r.Kernel, r.InterpNs, r.ClosureNs, r.SuperNs, r.SuperSpeedup)
	}
}

// TestSweepBatchShape smoke-tests the engine-level RunBatch sweep: every
// grid point must execute correctly and batch ≥ 8 must not run slower
// than one-at-a-time execution (the batched run stage's whole point).
func TestSweepBatchShape(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	s, err := SweepBatch(isa.XeonE5(), mcode.ClosureEngine{}, EngineCorpus()[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != len(BatchSizes) {
		t.Fatalf("got %d points, want %d", len(s.Points), len(BatchSizes))
	}
	for _, p := range s.Points {
		t.Logf("%s batch %d: %.1f ns/exec (%.2fx)", s.Kernel, p.BatchSize, p.NsPerExec, p.Gain)
		if p.NsPerExec <= 0 {
			t.Errorf("batch %d: degenerate point %+v", p.BatchSize, p)
		}
		// Generous floor: host noise may wobble the gain, but batching a
		// warm machine must never cost ~15% of throughput.
		if p.BatchSize >= 8 && p.Gain < 0.85 {
			t.Errorf("batch %d slower than sequential: gain %.2fx", p.BatchSize, p.Gain)
		}
	}
}

// TestDeliverySweepAmortizes runs the end-to-end delivery sweep on a
// reduced grid and checks the batched pipeline's claim: draining ≥ 8
// frames per poll must beat one-message-per-poll host throughput. The
// bar is "beats", with a little room for host noise: one frame per poll
// costs O(1) in the ucx queue, so all batching saves is the per-poll
// events and the per-group lookup — 1.2-1.8x on the build host.
func TestDeliverySweepAmortizes(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	s, err := DeliverySweep(testbed.ThorXeon(), []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		t.Logf("delivery batch %d: %.1f ns/msg (%.2fx)", p.BatchSize, p.NsPerExec, p.Gain)
	}
	last := s.Points[len(s.Points)-1]
	if last.Gain < 1.05 {
		t.Errorf("batch-8 delivery gain %.2fx, want >= 1.05x over one-message-per-poll", last.Gain)
	}
}
