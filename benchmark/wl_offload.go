package main

import (
	"encoding/binary"
	"fmt"

	"threechains/internal/core"
	"threechains/internal/isa"
	"threechains/internal/minilang"
	"threechains/internal/place"
	"threechains/internal/sim"
	"threechains/internal/testbed"
)

// Planner-routed offload streams under a cache smaller than the working
// set. The cluster, the kernel types and the multiset of requests a
// slice issues are a fixed scenario, so that every slice does the same
// work; the seed draws the order of the requests within each slice.
const (
	offloadSlices      = 4 // per round; each drains before the next starts
	offloadGroups      = 8
	offloadGroupNodes  = 8
	offloadScenario    = 20220906
	offloadStoreBudget = 256 << 10
	offloadNodeMem     = 1 << 20 // room for eight 32 KiB pull slots beside the region
	offloadDepth       = 8       // requests in flight per stream
)

func offloadParams(seed int64, opsPerGroup int) place.ScaleParams {
	return place.ScaleParams{
		Seed: seed, Groups: offloadGroups, GroupNodes: offloadGroupNodes, OpsPerGroup: opsPerGroup,
		Template: place.WorkloadParams{
			Types: 6, HeavyFrac: 0.5, HeavyIters: 8192,
			MinRegionWords: 128, MaxRegionWords: 3072, // 1 to 24 KiB
			SpeedMin: 1, SpeedMax: 4,
			DirtyWords: 256, PredeployFrac: 0.5, StreamDepth: offloadDepth,
		},
	}
}

// offloadKernelSource writes the kernel of one generated type. A
// read-only kernel sums the region's first words; a mutating one spins
// its compute loop, bumps the first word and overwrites the following
// ones. Scan and dirty lengths arrive in the payload, clamped to the
// destination region, so every route touches the same bytes.
func offloadKernelSource(t place.TypeSpec) string {
	if t.ReadOnly {
		return `function main(payload::Ptr, len::Int, target::Ptr)::Int
    words = load64(payload, 0)
    acc = 0
    i = 0
    while i < words
        acc = acc + load64(target, i * 8)
        i = i + 1
    end
    return acc
end
`
	}
	spin, ret := "", "old + 1"
	if t.Heavy {
		spin = fmt.Sprintf("    i = 0\n    while i < %d\n        i = i + 1\n    end\n", t.Iters)
		ret = "old"
	}
	return "function main(payload::Ptr, len::Int, target::Ptr)::Int\n" + spin + `    old = load64(target, 0)
    store64(target, 0, old + 1)
    words = load64(payload, 0)
    j = 1
    while j < words
        store64(target, j * 8, old + j)
        j = j + 1
    end
    return ` + ret + "\nend\n"
}

// offloadWords is the scan or dirty length of an op of type t against a
// region of the given size.
func offloadWords(t place.TypeSpec, regionWords int) int {
	words := t.DirtyWords
	if t.ReadOnly {
		words = t.Iters
	}
	if words > regionWords {
		words = regionWords
	}
	return words
}

type offloadWorld struct {
	e      *env
	policy place.Policy
	cl     *core.Cluster
	rng    *rng
	// scen is fixed: types, region sizes, node speeds, and per group the
	// requests of one slice.
	scen    *place.ScaleWorkload
	drivers []*core.Runtime
	handles [][]*core.Handle
	regions []uint64 // per global node: region base

	// model is the host-side copy of every region, advanced by check.
	model [][]uint64
	// This round's requests, the same materialised, and their streams,
	// per slice and group.
	reqs      [offloadSlices][][]place.OpSpec
	streamOps [offloadSlices][][]core.StreamOp
	streams   [offloadSlices][]*core.OffloadStream
	hash      *hash64
}

func buildOffload(e *env) (world, error) { return newOffloadWorld(e, place.PolicyCostModelQueue) }

func newOffloadWorld(e *env, policy place.Policy) (*offloadWorld, error) {
	done := e.phase("setup.build")
	p := testbed.ThorXeon()
	w := &offloadWorld{
		e: e, policy: policy, hash: newHash(), rng: newRNG(e.seed),
		scen: place.GenerateScale(offloadParams(offloadScenario, size.offloadOpsPerGroup/offloadSlices)),
	}
	total := w.scen.TotalNodes()
	specs := make([]core.NodeSpec, total)
	for i := range specs {
		specs[i] = core.NodeSpec{
			Name:  fmt.Sprintf("g%d-n%d", i/offloadGroupNodes, i%offloadGroupNodes),
			March: p.March(), MemBytes: offloadNodeMem, Engine: e.engine, StoreBudget: offloadStoreBudget,
		}
	}
	w.cl = core.NewCluster(p.Net, specs)
	e.attachTo(w.cl)
	for i, rt := range w.cl.Runtimes {
		g, local := i/offloadGroupNodes, i%offloadGroupNodes
		gw := w.scen.Groups[g]
		rt.Worker.AMDispatch = p.AMDispatch
		rt.Worker.IfuncPoll = p.IfuncPoll
		rt.ExecCostMultiplier = gw.SpeedMult[local]
		// Planner registry scans stay inside the group.
		for j := 0; j < offloadGroupNodes; j++ {
			rt.ScopeNodes = append(rt.ScopeNodes, g*offloadGroupNodes+j)
		}
		words := gw.RegionWords[local]
		base := rt.Node.Alloc(words * 8)
		rt.TargetPtr = base
		w.regions = append(w.regions, base)
		region := make([]uint64, words)
		mem := rt.Node.Mem()
		for j := range region {
			region[j] = uint64(i+1)*0x9e3779b97f4a7c15 + uint64(j)*0x6a09e667f3bcc909
			binary.LittleEndian.PutUint64(mem[base+uint64(8*j):], region[j])
		}
		w.model = append(w.model, region)
	}
	done()

	done = e.phase("setup.register")
	defer done()
	for g, gw := range w.scen.Groups {
		drv := w.cl.Runtime(g * offloadGroupNodes)
		w.drivers = append(w.drivers, drv)
		var hs []*core.Handle
		for _, ts := range gw.Types {
			name := fmt.Sprintf("g%d-t%d", g, ts.ID)
			mod, err := minilang.Compile(name, offloadKernelSource(ts))
			if err != nil {
				return nil, err
			}
			h, err := drv.RegisterBitcode(name, mod, p.Triples)
			if err != nil {
				return nil, err
			}
			hs = append(hs, h)
			if !ts.Predeployed {
				continue
			}
			// A resident service: registered on every node of the group
			// before the first request.
			for local := 0; local < offloadGroupNodes; local++ {
				node := g*offloadGroupNodes + local
				if err := w.cl.Runtime(node).RegisterLocal(h); err != nil {
					return nil, err
				}
				if local != 0 {
					drv.Sent.Mark(node, h.Hash)
				}
			}
		}
		w.handles = append(w.handles, hs)
	}
	return w, nil
}

func (w *offloadWorld) ops() int {
	return offloadSlices * offloadGroups * (size.offloadOpsPerGroup / offloadSlices)
}

// begin draws the order of every slice's requests and materialises them.
func (w *offloadWorld) begin() error {
	for s := range w.reqs {
		w.reqs[s], w.streamOps[s] = w.reqs[s][:0], w.streamOps[s][:0]
		for g, gw := range w.scen.Groups {
			reqs := make([]place.OpSpec, len(gw.Ops))
			ops := make([]core.StreamOp, len(gw.Ops))
			for i, j := range w.rng.Perm(len(gw.Ops)) {
				op := gw.Ops[j]
				ts := gw.Types[op.Type]
				dst := g*offloadGroupNodes + op.Dst
				n := op.PayloadLen
				if n < 8 {
					n = 8
				}
				payload := make([]byte, n)
				binary.LittleEndian.PutUint64(payload, uint64(offloadWords(ts, gw.RegionWords[op.Dst])))
				reqs[i] = op
				ops[i] = core.StreamOp{
					Dst: dst, H: w.handles[g][op.Type], Fn: "main", Payload: payload,
					Opts: core.OffloadOpts{
						DataAddr: w.regions[dst], DataSize: uint64(gw.RegionWords[op.Dst] * 8),
						WriteBack: !ts.ReadOnly, Policy: w.policy,
					},
				}
			}
			w.reqs[s] = append(w.reqs[s], reqs)
			w.streamOps[s] = append(w.streamOps[s], ops)
		}
	}
	return nil
}

// start opens every group's stream of slice s; the cluster still has to
// be driven.
func (w *offloadWorld) start(s int, rec *recorder) {
	w.streams[s] = w.streams[s][:0]
	t0 := now()
	for g, drv := range w.drivers {
		w.streams[s] = append(w.streams[s], drv.StartOffloadStream(w.streamOps[s][g], offloadDepth))
	}
	rec.issue += since(t0)
}

// finish reports a stream of slice s that failed to launch an op or
// never drained.
func (w *offloadWorld) finish(s int) error {
	for g, st := range w.streams[s] {
		if st.Err != nil {
			return fmt.Errorf("group %d: %w", g, st.Err)
		}
		if !st.Done.Fired() {
			return fmt.Errorf("group %d: stream stalled", g)
		}
	}
	return nil
}

func (w *offloadWorld) run(rec *recorder) error {
	for s := range w.streams {
		w.start(s, rec)
		w.cl.Run()
		if err := w.finish(s); err != nil {
			return err
		}
		rec.slice(0, w.ops()/offloadSlices)
	}
	return nil
}

// check replays the round on the host-side model: requests to one
// destination execute in issue order whatever route each took, so every
// result and every final region byte is known in advance.
func (w *offloadWorld) check() (int, error) {
	failed := 0
	for s := range w.streams {
		for g, st := range w.streams[s] {
			gw := w.scen.Groups[g]
			for i, op := range w.reqs[s][g] {
				ts := gw.Types[op.Type]
				region := w.model[g*offloadGroupNodes+op.Dst]
				words := offloadWords(ts, len(region))
				var want uint64
				if ts.ReadOnly {
					for _, v := range region[:words] {
						want += v
					}
				} else {
					old := region[0]
					region[0] = old + 1
					for j := 1; j < words; j++ {
						region[j] = old + uint64(j)
					}
					want = old + 1
					if ts.Heavy {
						want = old
					}
				}
				w.hash.u64(st.Results[i])
				if st.Results[i] != want {
					failed++
				}
			}
		}
	}
	for i, rt := range w.cl.Runtimes {
		if rt.LastExecErr != nil {
			return failed, fmt.Errorf("on %s: %w", rt.Node.Name, rt.LastExecErr)
		}
		mem := rt.Node.Mem()[w.regions[i]:]
		for j, v := range w.model[i] {
			if binary.LittleEndian.Uint64(mem[8*j:]) != v {
				return failed, fmt.Errorf("region of %s differs from the host model at word %d", rt.Node.Name, j)
			}
		}
	}
	return failed, nil
}

// latencyPass runs one more round and times every request from its
// launch to its kernel result. The planner's commit hook gives launch
// times: requests to one destination launch in issue order, so the n-th
// commit for a destination belongs to the n-th request addressing it.
// Results arrive in the stream's Results slice, which is pre-filled with
// a sentinel and watched while the engine is stepped one event at a time.
func (w *offloadWorld) latencyPass() ([]float64, error) {
	if err := w.begin(); err != nil {
		return nil, err
	}
	eng := w.cl.Eng
	launched := make([][]sim.Time, len(w.cl.Runtimes)) // per destination, in launch order
	for _, drv := range w.drivers {
		drv.Planner.OnCommit = func(d place.Decision) { launched[d.Dst] = append(launched[d.Dst], eng.Now()) }
	}
	defer func() {
		for _, drv := range w.drivers {
			drv.Planner.OnCommit = nil
		}
	}()
	const pending = ^uint64(0) - 0x0ff10ad
	var lat []float64
	next := make([]int, len(launched))
	for s := range w.streams {
		w.start(s, &recorder{})
		streams := w.streams[s]
		first := make([]int, len(streams))
		doneAt := make([][]sim.Time, len(streams))
		for g, st := range streams {
			doneAt[g] = make([]sim.Time, len(st.Results))
			for i := range st.Results {
				st.Results[i] = pending
			}
		}
		for eng.Step() {
			now := eng.Now()
			for g, st := range streams {
				// Requests are admitted in order and at most offloadDepth
				// are in flight, so the first offloadDepth unfinished ones
				// include every request that can finish.
				open := 0
				for i := first[g]; i < len(st.Results) && open < offloadDepth; i++ {
					switch {
					case doneAt[g][i] != 0:
					case st.Results[i] != pending:
						doneAt[g][i] = now
					default:
						open++
					}
					if open == 0 {
						first[g] = i + 1
					}
				}
			}
		}
		if err := w.finish(s); err != nil {
			return nil, err
		}
		for g, st := range streams {
			for i := range st.Results {
				dst := w.streamOps[s][g][i].Dst
				if doneAt[g][i] == 0 || next[dst] >= len(launched[dst]) {
					return nil, fmt.Errorf("group %d request %d never reported a result", g, i)
				}
				lat = append(lat, (doneAt[g][i] - launched[dst][next[dst]]).Micros())
				next[dst]++
			}
		}
	}
	return lat, nil
}

func (w *offloadWorld) stats() counters {
	c := clusterCounters(w.cl)
	for g, hs := range w.handles {
		for _, h := range hs {
			for local := 0; local < offloadGroupNodes; local++ {
				if reg, ok := w.cl.Runtime(g*offloadGroupNodes + local).Reg.Get(h.Hash); ok {
					c[cSteps] += reg.TotalSteps
				}
			}
		}
	}
	return c
}

// resultHash folds the per-op values, every region and the route mix.
func (w *offloadWorld) resultHash() uint64 {
	h := *w.hash
	for i, rt := range w.cl.Runtimes {
		h.bytes(rt.Node.Mem()[w.regions[i] : w.regions[i]+uint64(8*len(w.model[i]))])
	}
	for _, drv := range w.drivers {
		st := drv.Planner.Stats
		for _, v := range []uint64{st.Ship, st.Pull, st.Local, st.Fallbacks} {
			h.u64(v)
		}
	}
	return h.sum()
}

// inputs replays the kernels of group 0 against a mid-sized region.
func (w *offloadWorld) inputs() (*layerInputs, error) {
	const regionWords = 12 << 10 / 8
	in := &layerInputs{payload: 64, region: regionWords * 8, plan: true, burst: 1}
	for _, ts := range w.scen.Groups[0].Types {
		ts := ts
		mod, err := minilang.Compile(fmt.Sprintf("t%d", ts.ID), offloadKernelSource(ts))
		if err != nil {
			return nil, err
		}
		in.modules = append(in.modules, mod)
		in.kernels = append(in.kernels, kernelRun{mod: mod, entry: "main", march: isa.XeonE5(), init: func(mem []byte) [3]uint64 {
			binary.LittleEndian.PutUint64(mem[64:], uint64(offloadWords(ts, regionWords)))
			return [3]uint64{64, 64, 4096}
		}})
	}
	return in, nil
}
