package bench

// The sharded-engine scale harness: materialize grouped scale scenarios
// (place.GenerateScale) against a calibrated testbed cluster running on
// the sharded conservative simulator, drive every group's offload
// stream concurrently, and measure wall-clock throughput as a function
// of shard count. Groups are the sharding atom — a group's nodes share
// completion signals, offload streams and planner registry reads, so a
// group never splits across shards; cross-group traffic (the optional
// cross-shard carrier) uses only quiet ifunc sends, which ride the
// fabric and therefore synchronize through the engine's conservative
// LogGP horizon. The differential guarantee is the whole point: the
// result hash (per-op kernel values, every node's final region bytes,
// per-group planner stats, final virtual time) is bit-identical at
// every shard count, pinned by bench/scale_test.go.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"threechains/internal/core"
	"threechains/internal/ir"
	"threechains/internal/place"
	"threechains/internal/sim"
	"threechains/internal/testbed"
)

// ScaleScenario names one grouped scale workload.
type ScaleScenario struct {
	Name string
	// Params is the grouped generator parameterization.
	Params place.ScaleParams
	// CrossTraffic adds one quiet ifunc send from every group's driver
	// to the next group's driver (ring order) before the streams start:
	// guaranteed cross-shard fabric traffic at every shard count > 1.
	CrossTraffic bool
}

// ScaleScenarios returns the default scale grid. "scale-256" is the CI
// smoke shape (256 nodes); "scale-1000" is the acceptance sweep — 1000
// nodes, 100k requests — sized so a full shard sweep stays CI-viable.
func ScaleScenarios() []ScaleScenario {
	tmpl := place.WorkloadParams{
		Types: 4, MaxPayload: 64,
		MinRegionWords: 8, MaxRegionWords: 64,
		HeavyIters: 256, HeavyFrac: 0.25, PredeployFrac: 0.5,
		SpeedMin: 1, SpeedMax: 4,
		StreamDepth: 4,
	}
	return []ScaleScenario{
		{
			Name: "scale-256",
			Params: place.ScaleParams{
				Seed: 11, Groups: 32, GroupNodes: 8, OpsPerGroup: 24,
				Template: tmpl,
			},
			CrossTraffic: true,
		},
		{
			Name: "scale-1000",
			Params: place.ScaleParams{
				Seed: 23, Groups: 125, GroupNodes: 8, OpsPerGroup: 800,
				Template: tmpl,
			},
			CrossTraffic: true,
		},
	}
}

// ScaleRun is one shard count's measurement on one scenario.
type ScaleRun struct {
	Shards     int     `json:"shards"`
	Gomaxprocs int     `json:"gomaxprocs"`
	WallMS     float64 `json:"wall_ms"`
	VirtualUS  float64 `json:"virtual_us"`
	// WallPerVirtual is the wall-clock cost of simulating one unit of
	// virtual time (wall ms per virtual ms) — the simulator's slowdown
	// factor on this scenario.
	WallPerVirtual float64 `json:"wall_ms_per_virtual_ms"`
	// Speedup is wall(shards=1) / wall(this run), 1.0 for the baseline.
	Speedup float64 `json:"speedup_vs_single_heap"`
	// Events is the total number of dispatched simulation events.
	Events     uint64 `json:"events"`
	ResultHash string `json:"result_hash"`
}

// ScaleResult is one scenario row of the scale sweep.
type ScaleResult struct {
	Profile  string `json:"profile"`
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Nodes    int    `json:"nodes"`
	Groups   int    `json:"groups"`
	Ops      int    `json:"ops"`
	// Fingerprint is the grouped workload's golden-seed fingerprint.
	Fingerprint string `json:"fingerprint"`
	// LookaheadNS is the conservative horizon the fabric proposed (the
	// LogGP latency floor SendOverhead+BaseLatency), in nanoseconds.
	LookaheadNS float64    `json:"lookahead_ns"`
	Runs        []ScaleRun `json:"runs"`
}

// ScaleOutcome is one run's raw observables (everything the differential
// suite asserts on).
type ScaleOutcome struct {
	Hash       uint64
	Virtual    sim.Time
	Events     uint64
	WallMS     float64
	Lookahead  sim.Time
	GroupStats []place.Stats
}

// scaleWorld is one materialized grouped scenario.
type scaleWorld struct {
	cl *core.Cluster
	sw *place.ScaleWorkload
	// drivers[g] is group g's driver runtime (global node g*GroupNodes).
	drivers []*core.Runtime
	// handles[g] indexes group g's workload types.
	handles [][]*core.Handle
	// cross[g] is group g's cross-traffic kernel (distinct content per
	// group, so cross sends never alias a workload registration).
	cross []*core.Handle
	// regions[i] is global node i's operand-region base.
	regions []uint64
}

// buildCrossKernel builds group g's cross-traffic kernel: a cheap write
// that adds g+1 into the target word. The per-group constant makes each
// group's module content (and therefore its type hash) distinct.
func buildCrossKernel(g int) *ir.Module {
	m := ir.NewModule(fmt.Sprintf("cross-g%d", g))
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{ir.Ptr, ir.I64, ir.Ptr}, ir.I64)
	target := b.Param(2)
	old := b.Load(ir.I64, target, 0)
	inc := b.Add(old, b.Const64(int64(g+1)))
	b.Store(ir.I64, inc, target, 0)
	b.Ret(inc)
	return m
}

// newScaleWorld builds the grouped scenario's cluster on the profile,
// sharded: node n lives on shard (n / GroupNodes) %% shards, so whole
// groups map to shards at any count and shards=1 is exactly the
// single-heap engine.
func newScaleWorld(p testbed.Profile, sw *place.ScaleWorkload, shards int, cross bool) (*scaleWorld, error) {
	gn := sw.Params.GroupNodes
	total := sw.TotalNodes()
	specs := make([]core.NodeSpec, total)
	for i := range specs {
		specs[i] = core.NodeSpec{
			Name:     fmt.Sprintf("%s-g%d-n%d", p.Name, i/gn, i%gn),
			March:    p.March(),
			MemBytes: nodeMem,
			Engine:   p.Engine,
		}
	}
	shardOf := func(node int) int { return (node / gn) % shards }
	cl := core.NewShardedCluster(p.Net, specs, shards, shardOf)
	w := &scaleWorld{cl: cl, sw: sw}

	for i, rt := range cl.Runtimes {
		g, local := i/gn, i%gn
		gw := sw.Groups[g]
		rt.Worker.AMDispatch = p.AMDispatch
		rt.Worker.IfuncPoll = p.IfuncPoll
		rt.ExecCostMultiplier = gw.SpeedMult[local]
		// Planner registry scans stay inside the group (the sharding
		// atom): omniscient reads must never cross a shard boundary.
		scope := make([]int, gn)
		for j := range scope {
			scope[j] = g*gn + j
		}
		rt.ScopeNodes = scope
		base := rt.Node.Alloc(gw.RegionWords[local] * 8)
		rt.TargetPtr = base
		w.regions = append(w.regions, base)
		mem := rt.Node.Mem()
		for j := 0; j < gw.RegionWords[local]; j++ {
			v := uint64(i+1)*0x9e3779b97f4a7c15 + uint64(j)*0x6a09e667f3bcc909
			binary.LittleEndian.PutUint64(mem[base+uint64(8*j):], v)
		}
	}

	for g, gw := range sw.Groups {
		drv := cl.Runtime(g * gn)
		w.drivers = append(w.drivers, drv)
		var hs []*core.Handle
		for _, ts := range gw.Types {
			mod := buildWorkloadKernel(ts)
			h, err := drv.RegisterBitcode(fmt.Sprintf("g%d-%s", g, mod.Name), mod, p.Triples)
			if err != nil {
				return nil, err
			}
			hs = append(hs, h)
			if ts.Predeployed {
				for local := 0; local < gn; local++ {
					rt := cl.Runtime(g*gn + local)
					if err := rt.RegisterLocal(h); err != nil {
						return nil, err
					}
					if local != 0 {
						drv.Sent.Mark(g*gn+local, h.Hash)
					}
				}
			}
		}
		w.handles = append(w.handles, hs)
		if cross {
			h, err := drv.RegisterBitcode(fmt.Sprintf("cross-g%d", g), buildCrossKernel(g), p.Triples)
			if err != nil {
				return nil, err
			}
			w.cross = append(w.cross, h)
		}
	}
	return w, nil
}

// groupOps materializes group g's offload stream (global node IDs).
func (w *scaleWorld) groupOps(g int) ([]core.StreamOp, error) {
	gw := w.sw.Groups[g]
	gn := w.sw.Params.GroupNodes
	ops := make([]core.StreamOp, 0, len(gw.Ops))
	for i, op := range gw.Ops {
		if op.Churn {
			return nil, fmt.Errorf("bench: scale scenarios are stream-driven; churn ops unsupported (op %d)", i)
		}
		ts := gw.Types[op.Type]
		dst := g*gn + op.Dst
		payload := make([]byte, op.PayloadLen)
		if ts.ReadOnly {
			words := ts.Iters
			if words > gw.RegionWords[op.Dst] {
				words = gw.RegionWords[op.Dst]
			}
			if op.PayloadLen < 8 {
				payload = make([]byte, 8)
			}
			binary.LittleEndian.PutUint64(payload, uint64(words))
		}
		ops = append(ops, core.StreamOp{
			Dst: dst, H: w.handles[g][op.Type], Fn: "main", Payload: payload,
			Opts: core.OffloadOpts{
				DataAddr:  w.regions[dst],
				DataSize:  uint64(gw.RegionWords[op.Dst] * 8),
				WriteBack: !ts.ReadOnly,
				Policy:    place.PolicyCostModel,
			},
		})
	}
	return ops, nil
}

// run issues every group's stream (plus the optional cross-traffic ring)
// and drives the cluster to quiescence, timing the wall clock around the
// event loop.
func (w *scaleWorld) run() (*ScaleOutcome, error) {
	sw := w.sw
	depth := sw.Params.Template.StreamDepth
	if depth < 1 {
		depth = 1
	}
	// Cross-traffic ring: driver g pokes driver (g+1) mod G with a
	// quiet code-carrying ifunc. Issued from host context before the
	// streams, delivered mid-run across shard boundaries.
	if w.cross != nil && len(w.drivers) > 1 {
		for g, drv := range w.drivers {
			peer := w.drivers[(g+1)%len(w.drivers)]
			if err := drv.SendQuiet(peer.Node.ID, w.cross[g], "main", make([]byte, 8)); err != nil {
				return nil, fmt.Errorf("cross send g%d: %w", g, err)
			}
		}
	}
	streams := make([]*core.OffloadStream, len(w.drivers))
	for g := range w.drivers {
		ops, err := w.groupOps(g)
		if err != nil {
			return nil, err
		}
		streams[g] = w.drivers[g].StartOffloadStream(ops, depth)
	}

	start := time.Now()
	w.cl.Run()
	wall := time.Since(start)

	out := &ScaleOutcome{
		Virtual:   w.cl.Eng.Now(),
		Events:    w.cl.Eng.Executed(),
		WallMS:    float64(wall.Nanoseconds()) / 1e6,
		Lookahead: w.cl.Eng.Lookahead(),
	}
	h := fnv.New64a()
	var b [8]byte
	for g, s := range streams {
		if s.Err != nil {
			return nil, fmt.Errorf("group %d: %w", g, s.Err)
		}
		if !s.Done.Fired() {
			return nil, fmt.Errorf("bench: group %d stream stalled", g)
		}
		for _, v := range s.Results {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	gn := sw.Params.GroupNodes
	for i, rt := range w.cl.Runtimes {
		if rt.LastExecErr != nil {
			return nil, fmt.Errorf("on %s: %w", rt.Node.Name, rt.LastExecErr)
		}
		gw := sw.Groups[i/gn]
		base := w.regions[i]
		h.Write(rt.Node.Mem()[base : base+uint64(gw.RegionWords[i%gn]*8)])
	}
	for _, drv := range w.drivers {
		st := drv.Planner.Stats
		out.GroupStats = append(out.GroupStats, st)
		for _, v := range []uint64{st.Ship, st.Pull, st.Local, st.Fallbacks} {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	binary.LittleEndian.PutUint64(b[:], uint64(out.Virtual))
	h.Write(b[:])
	out.Hash = h.Sum64()
	return out, nil
}

// RunScaleScenario materializes the scenario on a fresh sharded cluster
// and runs it to quiescence. shards=1 is the single-heap baseline.
func RunScaleScenario(p testbed.Profile, sc ScaleScenario, shards int) (*ScaleOutcome, error) {
	sw := place.GenerateScale(sc.Params)
	w, err := newScaleWorld(p, sw, shards, sc.CrossTraffic)
	if err != nil {
		return nil, err
	}
	return w.run()
}

// ScaleShardCounts returns the sweep's default shard grid: 1, 2, 4 and
// NumCPU, deduplicated and ordered.
func ScaleShardCounts() []int {
	counts := []int{1, 2, 4, runtime.NumCPU()}
	var out []int
	for _, c := range counts {
		dup := false
		for _, o := range out {
			if o == c {
				dup = true
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// ScaleSweep runs each scenario at every shard count, asserting the
// bit-identity invariant (hash, virtual time, event count all equal to
// the shards=1 baseline — a divergence is a simulator bug, not a
// measurement) and reporting wall-clock speedup per shard count.
func ScaleSweep(p testbed.Profile, scenarios []ScaleScenario, shardCounts []int) ([]ScaleResult, error) {
	if scenarios == nil {
		scenarios = ScaleScenarios()
	}
	if shardCounts == nil {
		shardCounts = ScaleShardCounts()
	}
	var out []ScaleResult
	for _, sc := range scenarios {
		sw := place.GenerateScale(sc.Params)
		res := ScaleResult{
			Profile: p.Name, Scenario: sc.Name, Seed: sc.Params.Seed,
			Nodes: sw.TotalNodes(), Groups: sw.Params.Groups, Ops: sw.TotalOps(),
			Fingerprint: fmt.Sprintf("%016x", sw.Fingerprint()),
		}
		var base *ScaleOutcome
		for _, k := range shardCounts {
			o, err := RunScaleScenario(p, sc, k)
			if err != nil {
				return nil, fmt.Errorf("bench: scale %s/%s shards=%d: %w", p.Name, sc.Name, k, err)
			}
			if base == nil {
				base = o
				res.LookaheadNS = float64(o.Lookahead) / float64(sim.Nanosecond)
			} else if o.Hash != base.Hash || o.Virtual != base.Virtual || o.Events != base.Events {
				return nil, fmt.Errorf(
					"bench: scale %s/%s shards=%d diverged from single-heap: hash %016x vs %016x, virtual %v vs %v, events %d vs %d",
					p.Name, sc.Name, k, o.Hash, base.Hash, o.Virtual, base.Virtual, o.Events, base.Events)
			}
			run := ScaleRun{
				Shards: k, Gomaxprocs: runtime.GOMAXPROCS(0),
				WallMS: o.WallMS, VirtualUS: o.Virtual.Micros(),
				Events:     o.Events,
				ResultHash: fmt.Sprintf("%016x", o.Hash),
			}
			if o.Virtual > 0 {
				run.WallPerVirtual = o.WallMS / (o.Virtual.Micros() / 1e3)
			}
			if o.WallMS > 0 {
				run.Speedup = base.WallMS / o.WallMS
			}
			res.Runs = append(res.Runs, run)
		}
		out = append(out, res)
	}
	return out, nil
}
