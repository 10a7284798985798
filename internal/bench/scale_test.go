package bench

// The shard-count differential suite: the sharded conservative engine
// must be observationally invisible. Every scenario here runs at
// shards ∈ {1, 2, 4, NumCPU} and the full outcome — result hash over
// per-op kernel values, final region bytes and planner stats, plus the
// final virtual time and the dispatched-event count — must be
// bit-identical to the single-heap run. These tests are covered by the
// CI fail-on-skip guard: a skip silently voids the oracle guarantee.

import (
	"runtime"
	"testing"

	"threechains/internal/place"
	"threechains/internal/testbed"
)

// scaleDiffScenario is the differential suite's compact grouped
// scenario: small enough to run at four shard counts in well under a
// second, with cross-group ring traffic so every shard count > 1 sees
// genuine cross-shard fabric sends.
func scaleDiffScenario() ScaleScenario {
	return ScaleScenario{
		Name: "diff",
		Params: place.ScaleParams{
			Seed: 3, Groups: 8, GroupNodes: 4, OpsPerGroup: 16,
			Template: place.WorkloadParams{
				Types: 4, MaxPayload: 64,
				MinRegionWords: 8, MaxRegionWords: 64,
				HeavyIters: 256, HeavyFrac: 0.25, PredeployFrac: 0.5,
				SpeedMin: 1, SpeedMax: 4, StreamDepth: 4,
			},
		},
		CrossTraffic: true,
	}
}

// diffShardCounts is the suite's grid (deduplicated: NumCPU may be 1,
// 2 or 4 already).
func diffShardCounts() []int {
	return ScaleShardCounts()
}

// TestScaleShardDifferential pins the tentpole invariant: grouped scale
// scenarios produce bit-identical outcomes at every shard count, on
// every paper profile (the profiles differ in lookahead — Thor-Xeon's
// 1.4 µs floor vs Ookami's 1.8 µs — so the window cadence differs while
// the outcome must not).
func TestScaleShardDifferential(t *testing.T) {
	sc := scaleDiffScenario()
	for _, p := range testbed.All() {
		base, err := RunScaleScenario(p, sc, 1)
		if err != nil {
			t.Fatalf("%s shards=1: %v", p.Name, err)
		}
		for _, k := range diffShardCounts()[1:] {
			o, err := RunScaleScenario(p, sc, k)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", p.Name, k, err)
			}
			if o.Hash != base.Hash {
				t.Errorf("%s shards=%d: result hash %016x, single-heap %016x", p.Name, k, o.Hash, base.Hash)
			}
			if o.Virtual != base.Virtual {
				t.Errorf("%s shards=%d: final virtual time %v, single-heap %v", p.Name, k, o.Virtual, base.Virtual)
			}
			if o.Events != base.Events {
				t.Errorf("%s shards=%d: %d events, single-heap %d", p.Name, k, o.Events, base.Events)
			}
			for g := range base.GroupStats {
				if o.GroupStats[g] != base.GroupStats[g] {
					t.Errorf("%s shards=%d: group %d stats %+v, single-heap %+v",
						p.Name, k, g, o.GroupStats[g], base.GroupStats[g])
				}
			}
		}
	}
}

// TestScaleGolden pins the scale-256 scenario end to end: the grouped
// generator's fingerprint (drift in any rand draw re-prices every scale
// benchmark) and the full result hash of the materialized run.
func TestScaleGolden(t *testing.T) {
	scs := ScaleScenarios()
	if got, want := scs[0].Name, "scale-256"; got != want {
		t.Fatalf("scenario order changed: got %q, want %q", got, want)
	}
	sw := place.GenerateScale(scs[0].Params)
	if got, want := sw.Fingerprint(), uint64(0xceb3369fe0462901); got != want {
		t.Errorf("scale-256 fingerprint %016x, want %016x (generator drift)", got, want)
	}
	if got, want := place.GenerateScale(ScaleScenarios()[1].Params).Fingerprint(), uint64(0x0ff32c5f0465fc7d); got != want {
		t.Errorf("scale-1000 fingerprint %016x, want %016x (generator drift)", got, want)
	}
	o, err := RunScaleScenario(testbed.ThorXeon(), scs[0], runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	// Re-pinned for the removal of the data-region cache: the planner no
	// longer prices repeat pulls as elided or delta GETs, so every pull is
	// priced as one whole-region GET. That legitimately moves the route
	// mix (and with it the planner stats and final virtual time the hash
	// folds in). The new mix is bit-identical across shard counts 1/2/4
	// and across runs.
	if got, want := o.Hash, uint64(0x0df1d78cb5049729); got != want {
		t.Errorf("scale-256 result hash %016x, want %016x", got, want)
	}
}

// TestScaleSweepReport checks the sweep report plumbing: per-shard rows
// with GOMAXPROCS, wall/virtual ratio and speedup populated, identical
// hashes across rows (the sweep itself fails on divergence).
func TestScaleSweepReport(t *testing.T) {
	res, err := ScaleSweep(testbed.ThorXeon(), []ScaleScenario{scaleDiffScenario()}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Runs) != 2 {
		t.Fatalf("want 1 scenario x 2 runs, got %+v", res)
	}
	r := res[0]
	if r.Nodes != 32 || r.Ops != 128 {
		t.Errorf("scenario shape: nodes=%d ops=%d, want 32/128", r.Nodes, r.Ops)
	}
	if r.LookaheadNS <= 0 {
		t.Errorf("lookahead not recorded: %v", r.LookaheadNS)
	}
	for _, run := range r.Runs {
		if run.Gomaxprocs != runtime.GOMAXPROCS(0) {
			t.Errorf("gomaxprocs %d, want %d", run.Gomaxprocs, runtime.GOMAXPROCS(0))
		}
		if run.ResultHash != r.Runs[0].ResultHash {
			t.Errorf("hash diverged across rows: %s vs %s", run.ResultHash, r.Runs[0].ResultHash)
		}
		if run.VirtualUS <= 0 || run.WallMS <= 0 || run.WallPerVirtual <= 0 || run.Speedup <= 0 {
			t.Errorf("unpopulated run row: %+v", run)
		}
	}
}

// BenchmarkScale256 is the CI scale smoke: the 256-node grouped
// scenario on the sharded engine at NumCPU shards (one iteration in the
// bench job; locally it doubles as a wall-clock probe).
func BenchmarkScale256(b *testing.B) {
	sc := ScaleScenarios()[0]
	p := testbed.ThorXeon()
	for i := 0; i < b.N; i++ {
		if _, err := RunScaleScenario(p, sc, runtime.NumCPU()); err != nil {
			b.Fatal(err)
		}
	}
}
