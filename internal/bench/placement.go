package bench

// The placement-policy sweep: materialize generated workload scenarios
// (internal/place) against a calibrated testbed cluster and run the same
// offload stream under every routing policy, comparing total virtual
// time. This is the harness behind `paperbench -placement` and the
// BENCH_engines.json "placement" section — the cluster-level experiment
// the paper's §V microbenchmarks stop short of: given heterogeneous node
// speeds, mixed operand sizes and hot/cold module churn, when should a
// node ship the BitCODE and when should it pull the data instead?

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"threechains/internal/core"
	"threechains/internal/ir"
	"threechains/internal/isa"
	"threechains/internal/place"
	"threechains/internal/sim"
	"threechains/internal/testbed"
)

// PlacementPoint is one policy's outcome on one scenario.
type PlacementPoint struct {
	Policy string `json:"policy"`
	// TotalUS is the total virtual time of the offload stream (the
	// makespan: issue of the first request to quiescence after the last).
	TotalUS float64 `json:"total_us"`
	// Route mix chosen by the policy.
	ShipOps   uint64 `json:"ship_ops"`
	PullOps   uint64 `json:"pull_ops"`
	LocalOps  uint64 `json:"local_ops"`
	Fallbacks uint64 `json:"fallbacks,omitempty"`
	// ResultHash fingerprints the execution results (per-op values +
	// final region bytes): identical across policies by construction,
	// asserted by the differential tests and checked again here.
	ResultHash string `json:"result_hash"`
}

// PlacementResult is one scenario row of the placement sweep.
type PlacementResult struct {
	Profile  string `json:"profile"`
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Nodes    int    `json:"nodes"`
	Types    int    `json:"types"`
	Ops      int    `json:"ops"`
	// Fingerprint is the workload's golden-seed fingerprint.
	Fingerprint string           `json:"fingerprint"`
	Points      []PlacementPoint `json:"points"`
	// BestStaticUS is min(ship, pull); WinPct is the cost model's
	// improvement over it ((best-cost)/best*100, positive = planner wins).
	BestStaticUS float64 `json:"best_static_us"`
	CostModelUS  float64 `json:"cost_model_us"`
	WinPct       float64 `json:"win_pct"`
	// Concurrent-mode fields (ConcurrentPlacementSweep): the stream
	// window, the arrival-burst size, the queueing-aware planner's
	// makespan and its improvement over the best of every other policy —
	// the two statics and the zero-load cost model.
	Depth       int     `json:"depth,omitempty"`
	Burst       int     `json:"burst,omitempty"`
	QueueUS     float64 `json:"queue_us,omitempty"`
	QueueWinPct float64 `json:"queue_win_pct,omitempty"`
}

// PlacementScenario names one generated workload of the default sweep.
type PlacementScenario struct {
	Name   string
	Params place.WorkloadParams
}

// PlacementScenarios returns the default sweep grid. "mixed-hetero" is
// the acceptance scenario: 8-24 KiB operand regions with real dirty
// spans (the write-back is real wire time on top of the GET), mildly
// asymmetric node speeds, heavy loop kernels next to cheap resident
// services — the regime where neither static policy can win everywhere
// and the planner's per-request mix beats both.
func PlacementScenarios() []PlacementScenario {
	return []PlacementScenario{
		{Name: "mixed-hetero", Params: place.WorkloadParams{
			Seed: 46, Nodes: 4, Types: 6, Ops: 96,
			MinRegionWords: 1024, MaxRegionWords: 3072,
			HeavyIters: 8192, PredeployFrac: 0.5,
			// A narrow speed band: ship only ever wins when the remote
			// execution penalty is smaller than the wire cost it avoids
			// (the GET plus the write-back), which caps the useful
			// asymmetry well below the 1-8x default.
			SpeedMin: 1, SpeedMax: 1.8,
			// Mutating kernels overwrite a real span, not one word: the
			// pull route's delta write-back pays for the dirty bytes the
			// ship route writes in place, which keeps the ship/pull
			// trade-off genuine.
			DirtyWords: 3072,
		}},
		{Name: "churn", Params: place.WorkloadParams{Seed: 7, Nodes: 4, Types: 6, Ops: 96, ChurnEvery: 16}},
		{Name: "uniform-cheap", Params: place.WorkloadParams{
			Seed: 9, Nodes: 3, Types: 4, Ops: 64,
			HeavyFrac: 0.01, SpeedMin: 1, SpeedMax: 1.5, MaxRegionWords: 64,
		}},
	}
}

// ConcurrentPlacementScenarios returns the concurrent sweep grid —
// windowed offload streams against the queueing-aware planner.
// "concurrent-hetero" is the acceptance scenario: a fast driver issues
// 16-deep streams of mostly-heavy, mostly-resident kernels against nine
// remote nodes 1-8x slower. Priced one request at a time the pull route
// wins almost everywhere (a 4-8 KiB GET is cheap next to running a
// heavy kernel on a slow core), so the zero-load cost model herds onto
// the driver's core exactly like always-pull; the queueing-aware
// planner watches its own busy-until horizons fill and spills the
// excess to the idle remote cores, beating both statics and the
// zero-load model on makespan.
func ConcurrentPlacementScenarios() []PlacementScenario {
	return []PlacementScenario{
		{Name: "concurrent-hetero", Params: place.WorkloadParams{
			Seed: 7, Nodes: 10, Types: 6, Ops: 160,
			MinRegionWords: 512, MaxRegionWords: 1024,
			HeavyIters: 16384, HeavyFrac: 0.9, PredeployFrac: 0.99,
			SpeedMin: 1, SpeedMax: 8,
			StreamDepth: 16,
		}},
		{Name: "concurrent-burst", Params: place.WorkloadParams{
			Seed: 7, Nodes: 10, Types: 6, Ops: 160,
			MinRegionWords: 512, MaxRegionWords: 1024,
			HeavyIters: 16384, HeavyFrac: 0.9, PredeployFrac: 0.99,
			SpeedMin: 1, SpeedMax: 8,
			StreamDepth: 8, ArrivalBurst: 32,
		}},
	}
}

// placementWorld is one materialized scenario: cluster, regions, handles.
type placementWorld struct {
	cl      *core.Cluster
	drv     *core.Runtime
	w       *place.Workload
	triples []isa.Triple
	regions []uint64 // per-node region base
	handles []*core.Handle
	names   []string
	// results accumulates per-op observed values in execution order.
	results []uint64
	// decisions accumulates the driver planner's committed decisions
	// (collected via OnCommit by runStream, for the determinism tests).
	decisions []place.Decision
}

// buildWorkloadKernel builds the module for one generated type. Write
// kernels bump the target word; heavy ones spin a counted loop first;
// read-only kernels sum the region's first N words (N arrives in the
// payload so both routes scan exactly the pulled bytes) and leave memory
// untouched.
func buildWorkloadKernel(t place.TypeSpec) *ir.Module {
	name := fmt.Sprintf("wl-type-%d", t.ID)
	m := ir.NewModule(name)
	b := ir.NewBuilder(m)
	b.NewFunc("main", []ir.Type{ir.Ptr, ir.I64, ir.Ptr}, ir.I64)
	payload, target := b.Param(0), b.Param(2)

	if t.ReadOnly {
		// words = payload[0]; sum target[0..words) and return the sum.
		words := b.Load(ir.I64, payload, 0)
		acc := b.Alloca(8)
		i := b.Alloca(8)
		b.Store(ir.I64, b.Const64(0), acc, 0)
		b.Store(ir.I64, b.Const64(0), i, 0)
		head := b.NewBlock("head")
		body := b.NewBlock("body")
		exit := b.NewBlock("exit")
		b.Br(head)
		b.SetBlock(head)
		iv := b.Load(ir.I64, i, 0)
		b.CondBr(b.ICmp(ir.PredSLT, iv, words), body, exit)
		b.SetBlock(body)
		v := b.Load(ir.I64, b.PtrAdd(target, iv, 8, 0), 0)
		b.Store(ir.I64, b.Add(b.Load(ir.I64, acc, 0), v), acc, 0)
		b.Store(ir.I64, b.Add(iv, b.Const64(1)), i, 0)
		b.Br(head)
		b.SetBlock(exit)
		b.Ret(b.Load(ir.I64, acc, 0))
		return m
	}

	// Mutating kernels: optionally spin the compute loop, bump the
	// target word, and — for dirty-write types — overwrite the next
	// DirtyWords-1 words (the delta write-back dimension; the count
	// arrives in the payload, clamped per op to the destination region,
	// so both routes touch exactly the same bytes).
	var dirty ir.Reg
	if t.DirtyWords > 1 {
		dirty = b.Alloca(8)
		b.Store(ir.I64, b.Const64(1), dirty, 0)
	}
	if t.Heavy {
		// Spin a counted loop (the compute weight) before touching memory.
		i := b.Alloca(8)
		b.Store(ir.I64, b.Const64(0), i, 0)
		head := b.NewBlock("head")
		body := b.NewBlock("body")
		exit := b.NewBlock("exit")
		b.Br(head)
		b.SetBlock(head)
		iv := b.Load(ir.I64, i, 0)
		b.CondBr(b.ICmp(ir.PredSLT, iv, b.Const64(int64(t.Iters))), body, exit)
		b.SetBlock(body)
		b.Store(ir.I64, b.Add(iv, b.Const64(1)), i, 0)
		b.Br(head)
		b.SetBlock(exit)
	}
	old := b.Load(ir.I64, target, 0)
	inc := b.Add(old, b.Const64(1))
	b.Store(ir.I64, inc, target, 0)
	if t.DirtyWords > 1 {
		// words = payload[0]; target[j] = old + j for j in [1, words).
		words := b.Load(ir.I64, payload, 0)
		dh := b.NewBlock("dhead")
		db := b.NewBlock("dbody")
		dx := b.NewBlock("dexit")
		b.Br(dh)
		b.SetBlock(dh)
		jv := b.Load(ir.I64, dirty, 0)
		b.CondBr(b.ICmp(ir.PredSLT, jv, words), db, dx)
		b.SetBlock(db)
		b.Store(ir.I64, b.Add(old, jv), b.PtrAdd(target, jv, 8, 0), 0)
		b.Store(ir.I64, b.Add(jv, b.Const64(1)), dirty, 0)
		b.Br(dh)
		b.SetBlock(dx)
	}
	if t.Heavy {
		b.Ret(old)
	} else {
		b.Ret(inc)
	}
	return m
}

// newPlacementWorld builds the scenario's cluster on the profile:
// per-node regions (sized and initialized deterministically from the
// workload), asymmetric speeds, and every type registered on the driver.
func newPlacementWorld(p testbed.Profile, w *place.Workload, engine string) (*placementWorld, error) {
	specs := make([]core.NodeSpec, len(w.RegionWords))
	for i := range specs {
		specs[i] = core.NodeSpec{Name: fmt.Sprintf("%s-n%d", p.Name, i), March: p.March(), Engine: engine}
	}
	cl := core.NewCluster(p.Net, specs)
	pw := &placementWorld{cl: cl, drv: cl.Runtime(0), w: w, triples: p.Triples}
	for i, rt := range cl.Runtimes {
		rt.Worker.AMDispatch = p.AMDispatch
		rt.Worker.IfuncPoll = p.IfuncPoll
		rt.ExecCostMultiplier = w.SpeedMult[i]
		base := rt.Node.Alloc(w.RegionWords[i] * 8)
		rt.TargetPtr = base
		pw.regions = append(pw.regions, base)
		// Deterministic region content (same for every policy run): the
		// read-only kernels' sums depend on it.
		mem := rt.Node.Mem()
		for j := 0; j < w.RegionWords[i]; j++ {
			v := uint64(i+1)*0x9e3779b97f4a7c15 + uint64(j)*0x6a09e667f3bcc909
			binary.LittleEndian.PutUint64(mem[base+uint64(8*j):], v)
		}
	}
	for _, ts := range w.Types {
		mod := buildWorkloadKernel(ts)
		h, err := pw.drv.RegisterBitcode(mod.Name, mod, p.Triples)
		if err != nil {
			return nil, err
		}
		pw.handles = append(pw.handles, h)
		pw.names = append(pw.names, mod.Name)
		if ts.Predeployed {
			// Resident service: code registered on every node before the
			// stream starts, sender caches marked — a ship is a truncated
			// frame against a warm registry from the first op.
			for j, rt := range cl.Runtimes {
				if err := rt.RegisterLocal(h); err != nil {
					return nil, err
				}
				if j != 0 {
					pw.drv.Sent.Mark(j, h.Hash)
				}
			}
		}
	}
	return pw, nil
}

// opRequest materializes op i: its handle, payload and offload options
// (everything but the policy — shared by the sequential and stream
// runners so both issue byte-identical requests).
func (pw *placementWorld) opRequest(i int) (*core.Handle, []byte, core.OffloadOpts) {
	w := pw.w
	op := w.Ops[i]
	h := pw.handles[op.Type]
	ts := w.Types[op.Type]
	payload := make([]byte, op.PayloadLen)
	if ts.ReadOnly {
		// Scan length: clamped to the destination region so ship and
		// pull read exactly the same bytes.
		words := ts.Iters
		if words > w.RegionWords[op.Dst] {
			words = w.RegionWords[op.Dst]
		}
		if op.PayloadLen < 8 {
			payload = make([]byte, 8)
		}
		binary.LittleEndian.PutUint64(payload, uint64(words))
	} else if ts.DirtyWords > 1 {
		// Dirty-write span: clamped to the destination region so both
		// routes overwrite exactly the same bytes.
		words := ts.DirtyWords
		if words > w.RegionWords[op.Dst] {
			words = w.RegionWords[op.Dst]
		}
		if op.PayloadLen < 8 {
			payload = make([]byte, 8)
		}
		binary.LittleEndian.PutUint64(payload, uint64(words))
	}
	opts := core.OffloadOpts{
		DataAddr:  pw.regions[op.Dst],
		DataSize:  uint64(w.RegionWords[op.Dst] * 8),
		WriteBack: !ts.ReadOnly,
	}
	return h, payload, opts
}

// execErr surfaces the first guest execution error on any node.
func (pw *placementWorld) execErr() error {
	for _, rt := range pw.cl.Runtimes {
		if rt.LastExecErr != nil {
			return fmt.Errorf("on %s: %w", rt.Node.Name, rt.LastExecErr)
		}
	}
	return nil
}

// churn resets a type's deployment state everywhere: the driver
// deregisters (sender caches invalidate) and every node drops its
// registration, so the next use pays cold-start costs again.
func (pw *placementWorld) churn(typ int) error {
	h := pw.handles[typ]
	if err := pw.drv.Deregister(pw.names[typ]); err != nil {
		return err
	}
	for _, rt := range pw.cl.Runtimes {
		rt.DeregisterLocal(h.Hash)
	}
	h2, err := pw.drv.RegisterBitcode(pw.names[typ], buildWorkloadKernel(pw.w.Types[typ]), pw.triples)
	if err != nil {
		return err
	}
	pw.handles[typ] = h2
	return nil
}

// run drives the full op stream under one policy, sequentially (each op
// runs to quiescence before the next — the latency-oriented regime the
// planner's per-request estimates model). Returns the total virtual
// time, the route stats and the result hash.
func (pw *placementWorld) run(policy place.Policy) (sim.Time, place.Stats, uint64, error) {
	// Record every execution's value in completion order (one op runs at
	// a time, so the order is the op order regardless of route).
	obs := func(_, _ string, result uint64, _ sim.Time) {
		pw.results = append(pw.results, result)
	}
	for _, rt := range pw.cl.Runtimes {
		rt.Observer = obs
	}
	w := pw.w
	for i, op := range w.Ops {
		if op.Churn {
			if err := pw.churn(op.Type); err != nil {
				return 0, place.Stats{}, 0, fmt.Errorf("op %d churn: %w", i, err)
			}
		}
		h, payload, opts := pw.opRequest(i)
		opts.Policy = policy
		if _, err := pw.drv.Offload(op.Dst, h, "main", payload, opts); err != nil {
			return 0, place.Stats{}, 0, fmt.Errorf("op %d: %w", i, err)
		}
		pw.cl.Run()
		if err := pw.execErr(); err != nil {
			return 0, place.Stats{}, 0, fmt.Errorf("op %d %w", i, err)
		}
	}
	return pw.cl.Eng.Now(), pw.drv.Planner.Stats, pw.resultHash(), nil
}

// runStream drives the op stream under one policy through windowed
// offload streams (core.OffloadStream): up to StreamDepth requests in
// flight, requests to one destination serialized, ArrivalBurst-sized
// arrival windows drained to a barrier. Per-op results come from the
// stream (indexed by op, not by completion order), so the result hash is
// directly comparable with the sequential runner's — per-destination
// serialization makes every op's value identical across modes, depths
// and policies. Committed decisions are collected through the planner's
// OnCommit hook for the determinism tests.
func (pw *placementWorld) runStream(policy place.Policy) (sim.Time, place.Stats, uint64, error) {
	w := pw.w
	for _, op := range w.Ops {
		if op.Churn {
			return 0, place.Stats{}, 0, fmt.Errorf("bench: churn ops are sequential-only (deregistration races in-flight offloads)")
		}
	}
	depth := w.Params.StreamDepth
	if depth < 1 {
		depth = 1
	}
	burst := w.Params.ArrivalBurst
	if burst < 1 {
		burst = len(w.Ops)
	}
	pw.drv.Planner.OnCommit = func(d place.Decision) { pw.decisions = append(pw.decisions, d) }
	for start := 0; start < len(w.Ops); start += burst {
		end := start + burst
		if end > len(w.Ops) {
			end = len(w.Ops)
		}
		ops := make([]core.StreamOp, 0, end-start)
		for i := start; i < end; i++ {
			h, payload, opts := pw.opRequest(i)
			opts.Policy = policy
			ops = append(ops, core.StreamOp{
				Dst: w.Ops[i].Dst, H: h, Fn: "main", Payload: payload, Opts: opts,
			})
		}
		s := pw.drv.StartOffloadStream(ops, depth)
		pw.cl.Run()
		if s.Err != nil {
			return 0, place.Stats{}, 0, fmt.Errorf("burst at op %d: %w", start, s.Err)
		}
		if !s.Done.Fired() {
			return 0, place.Stats{}, 0, fmt.Errorf("bench: stream stalled at op %d", start)
		}
		if err := pw.execErr(); err != nil {
			return 0, place.Stats{}, 0, fmt.Errorf("burst at op %d %w", start, err)
		}
		pw.results = append(pw.results, s.Results...)
	}
	return pw.cl.Eng.Now(), pw.drv.Planner.Stats, pw.resultHash(), nil
}

// resultHash fingerprints everything the workload observably computed:
// the per-op result values and every node's final region bytes.
func (pw *placementWorld) resultHash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range pw.results {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i, rt := range pw.cl.Runtimes {
		base := pw.regions[i]
		h.Write(rt.Node.Mem()[base : base+uint64(pw.w.RegionWords[i]*8)])
	}
	return h.Sum64()
}

// RunPlacementScenario materializes one scenario and runs it under one
// policy on a fresh cluster.
func RunPlacementScenario(p testbed.Profile, params place.WorkloadParams, policy place.Policy) (sim.Time, place.Stats, uint64, error) {
	w := place.Generate(params)
	pw, err := newPlacementWorld(p, w, p.Engine)
	if err != nil {
		return 0, place.Stats{}, 0, err
	}
	return pw.run(policy)
}

// RunConcurrentPlacementScenario materializes one scenario and drives it
// as windowed offload streams (params.StreamDepth/ArrivalBurst) under
// one policy on a fresh cluster, additionally returning the planner's
// committed decision trace (for run/engine determinism checks).
func RunConcurrentPlacementScenario(p testbed.Profile, params place.WorkloadParams, policy place.Policy) (sim.Time, place.Stats, uint64, []place.Decision, error) {
	w := place.Generate(params)
	pw, err := newPlacementWorld(p, w, p.Engine)
	if err != nil {
		return 0, place.Stats{}, 0, nil, err
	}
	total, stats, hash, err := pw.runStream(policy)
	return total, stats, hash, pw.decisions, err
}

// placementPolicies is the sweep's policy grid.
var placementPolicies = []place.Policy{place.PolicyShipCode, place.PolicyPullData, place.PolicyCostModel}

// PlacementSweep runs the scenario grid under every policy on one
// profile, asserting cross-policy result equality (the differential
// guarantee, re-checked outside the tests because a silent divergence
// would invalidate the comparison).
func PlacementSweep(p testbed.Profile, scenarios []PlacementScenario) ([]PlacementResult, error) {
	if scenarios == nil {
		scenarios = PlacementScenarios()
	}
	var out []PlacementResult
	for _, sc := range scenarios {
		w := place.Generate(sc.Params)
		res := PlacementResult{
			Profile: p.Name, Scenario: sc.Name, Seed: sc.Params.Seed,
			Nodes: len(w.RegionWords), Types: len(w.Types), Ops: len(w.Ops),
			Fingerprint: fmt.Sprintf("%016x", w.Fingerprint()),
		}
		var hashes []uint64
		for _, pol := range placementPolicies {
			total, stats, hash, err := RunPlacementScenario(p, sc.Params, pol)
			if err != nil {
				return nil, fmt.Errorf("bench: placement %s/%s/%v: %w", p.Name, sc.Name, pol, err)
			}
			hashes = append(hashes, hash)
			res.Points = append(res.Points, PlacementPoint{
				Policy: pol.String(), TotalUS: total.Micros(),
				ShipOps: stats.Ship, PullOps: stats.Pull, LocalOps: stats.Local,
				Fallbacks:  stats.Fallbacks,
				ResultHash: fmt.Sprintf("%016x", hash),
			})
		}
		for _, h := range hashes[1:] {
			if h != hashes[0] {
				return nil, fmt.Errorf("bench: placement %s/%s: policies diverged (hashes %x)", p.Name, sc.Name, hashes)
			}
		}
		ship, pull, cost := res.Points[0].TotalUS, res.Points[1].TotalUS, res.Points[2].TotalUS
		res.BestStaticUS = ship
		if pull < ship {
			res.BestStaticUS = pull
		}
		res.CostModelUS = cost
		if res.BestStaticUS > 0 {
			res.WinPct = (res.BestStaticUS - cost) / res.BestStaticUS * 100
		}
		out = append(out, res)
	}
	return out, nil
}

// concurrentPolicies is the concurrent sweep's policy grid: the two
// statics, the PR 4 zero-load cost model, and the queueing-aware model.
var concurrentPolicies = []place.Policy{
	place.PolicyShipCode, place.PolicyPullData,
	place.PolicyCostModel, place.PolicyCostModelQueue,
}

// ConcurrentPlacementSweep runs the concurrent scenario grid under every
// policy — including the queueing-aware cost model — as windowed offload
// streams, asserting cross-policy result equality exactly like the
// sequential sweep. QueueUS/QueueWinPct report the queueing model's
// makespan against the best of all other policies.
func ConcurrentPlacementSweep(p testbed.Profile, scenarios []PlacementScenario) ([]PlacementResult, error) {
	if scenarios == nil {
		scenarios = ConcurrentPlacementScenarios()
	}
	var out []PlacementResult
	for _, sc := range scenarios {
		w := place.Generate(sc.Params)
		res := PlacementResult{
			Profile: p.Name, Scenario: sc.Name, Seed: sc.Params.Seed,
			Nodes: len(w.RegionWords), Types: len(w.Types), Ops: len(w.Ops),
			Fingerprint: fmt.Sprintf("%016x", w.Fingerprint()),
			Depth:       sc.Params.StreamDepth, Burst: sc.Params.ArrivalBurst,
		}
		var hashes []uint64
		for _, pol := range concurrentPolicies {
			total, stats, hash, _, err := RunConcurrentPlacementScenario(p, sc.Params, pol)
			if err != nil {
				return nil, fmt.Errorf("bench: concurrent placement %s/%s/%v: %w", p.Name, sc.Name, pol, err)
			}
			hashes = append(hashes, hash)
			res.Points = append(res.Points, PlacementPoint{
				Policy: pol.String(), TotalUS: total.Micros(),
				ShipOps: stats.Ship, PullOps: stats.Pull, LocalOps: stats.Local,
				Fallbacks:  stats.Fallbacks,
				ResultHash: fmt.Sprintf("%016x", hash),
			})
		}
		for _, h := range hashes[1:] {
			if h != hashes[0] {
				return nil, fmt.Errorf("bench: concurrent placement %s/%s: policies diverged (hashes %x)", p.Name, sc.Name, hashes)
			}
		}
		ship, pull := res.Points[0].TotalUS, res.Points[1].TotalUS
		cost, queue := res.Points[2].TotalUS, res.Points[3].TotalUS
		res.BestStaticUS = ship
		if pull < ship {
			res.BestStaticUS = pull
		}
		res.CostModelUS = cost
		res.QueueUS = queue
		best := res.BestStaticUS
		if cost < best {
			best = cost
		}
		if best > 0 {
			res.QueueWinPct = (best - queue) / best * 100
		}
		out = append(out, res)
	}
	return out, nil
}
