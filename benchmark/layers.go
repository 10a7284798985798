package main

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"threechains/internal/bitcode"
	"threechains/internal/core"
	"threechains/internal/elfx"
	"threechains/internal/fabric"
	"threechains/internal/ifunc"
	"threechains/internal/ir"
	"threechains/internal/isa"
	"threechains/internal/jit"
	"threechains/internal/linker"
	"threechains/internal/mcode"
	"threechains/internal/minilang"
	"threechains/internal/passes"
	"threechains/internal/place"
	"threechains/internal/sim"
	"threechains/internal/testbed"
	"threechains/internal/toolchain"
	"threechains/internal/ucx"
)

// Layer replays: each times one layer's exported functions from outside
// the program, on inputs taken from the workload being traced, in loops
// of at least size.replayMin, and reports the median of replayRuns loops,
// as the rounds they are set against report their median.
const replayRuns = 5

// replay times fn, which does at least n units of work per call and
// returns how many it did, and returns the host nanoseconds per unit of
// the median loop.
func replay(fn func(n int) int) float64 {
	n := 1
	for {
		t0 := now()
		fn(n)
		d := since(t0)
		if d >= size.replayMin/8 {
			n = int(float64(n)*float64(size.replayMin)/float64(d)) + 1
			break
		}
		n *= 4
	}
	var loops []float64
	for r := 0; r < replayRuns; r++ {
		t0 := now()
		units := fn(n)
		loops = append(loops, float64(since(t0).Nanoseconds())/float64(units))
	}
	return median(loops)
}

// replaySink receives the results of replayed calls whose only effect is
// their result, so that the compiler cannot drop them.
var replaySink int

// each adapts a one-unit body to replay.
func each(body func(i int)) func(n int) int {
	return func(n int) int {
		for i := 0; i < n; i++ {
			body(i)
		}
		return n
	}
}

// kernelRun is one kernel of the workload with the memory image and
// arguments of a representative execution.
type kernelRun struct {
	mod   *ir.Module
	entry string
	march *isa.MicroArch
	// init fills guest memory and returns the entry's three arguments.
	init func(mem []byte) [3]uint64
}

// layerInputs is what a workload hands to the replays.
type layerInputs struct {
	// payload is the payload length of the workload's usual message.
	payload int
	// sources are the minilang sources the measured rounds compile; only
	// cold-deploy compiles inside a round.
	sources []string
	// modules are the kernels the workload registers.
	modules []*ir.Module
	// kernels are the executions that carry the workload's guest work.
	kernels []kernelRun
	// region is the size of a pulled operand region, 0 without pulls.
	region int
	// plan is set on the workload that routes through the planner.
	plan bool
	// oneFramePerPoll is set when the workload pins MaxDrain to 1.
	oneFramePerPoll bool
	// burst is how many messages the workload has on their way to one
	// worker when it runs the cluster: the depth the transport replays
	// and sim.ns_per_event.own run at.
	burst int
	// bitcodeRegs and binaryRegs are source-side registrations per op
	// inside the measured rounds, by code kind.
	bitcodeRegs, binaryRegs float64
}

// layerTimes holds every host-clock replay result by metric name.
type layerTimes map[string]float64

// simInside records, for replays that run a simulation, the host
// nanoseconds one unit spent on engine events: the events it took, priced
// by the sim replay at the queue depth the replay itself ran at. A
// replay's self time is its time minus this.
type simInside map[string]float64

// stubLoader provides the guest intrinsics as no-ops, so kernels that
// forward themselves or signal completion run outside a runtime.
func stubLoader() *linker.Loader {
	ld := linker.NewLoader()
	tc := linker.NewDynLib(core.LibTC)
	for _, sym := range []string{core.SymNumNodes, core.SymNowNS, core.SymLog, core.SymSendSelf, core.SymComplete} {
		tc.Funcs[sym] = func([]uint64) (uint64, error) { return 0, nil }
	}
	// Node 1 is server 0 in the chaser's context block.
	tc.Funcs[core.SymNodeID] = func([]uint64) (uint64, error) { return 1, nil }
	ux := linker.NewDynLib(core.LibUCX)
	ux.Funcs[core.SymPutU64] = func([]uint64) (uint64, error) { return 0, nil }
	for _, lib := range []*linker.DynLib{tc, ux} {
		if err := ld.Preload(lib); err != nil {
			panic(err) // a fresh loader cannot hold a duplicate
		}
	}
	return ld
}

const (
	guestMem   = 1 << 20
	guestStack = guestMem - 64<<10
)

// newMachine compiles mod the way a receiving node's JIT does and
// returns a machine over fresh guest memory.
func newMachine(mod *ir.Module, march *isa.MicroArch) (*mcode.Machine, *ir.SimpleEnv, error) {
	opt := mod.Clone()
	if err := passes.Optimize(opt, passes.O2); err != nil {
		return nil, nil, err
	}
	cm, err := mcode.Lower(opt, march)
	if err != nil {
		return nil, nil, err
	}
	if _, err := mcode.Verify(cm); err != nil {
		return nil, nil, err
	}
	link, err := linker.PatchGOT(cm, nil, stubLoader())
	if err != nil {
		return nil, nil, err
	}
	art, err := mcode.DefaultEngine.Prepare(cm)
	if err != nil {
		return nil, nil, err
	}
	env := ir.NewSimpleEnv(guestMem)
	ma, err := mcode.NewMachineArt(art, env, link, ir.ExecLimits{MaxSteps: 1 << 24, StackBase: guestStack, StackSize: 64 << 10})
	return ma, env, err
}

// runLayerReplays measures every layer on in's inputs.
func runLayerReplays(in *layerInputs) (layerTimes, simInside, error) {
	lt, ev := layerTimes{}, simInside{}
	replaySim(in, lt)
	if err := replayTransport(in, lt, ev); err != nil {
		return nil, nil, err
	}
	if err := replayIfunc(in, lt); err != nil {
		return nil, nil, err
	}
	if err := replayCodegen(in, lt); err != nil {
		return nil, nil, err
	}
	if err := replayRun(in, lt); err != nil {
		return nil, nil, err
	}
	if in.plan {
		replayPlan(lt)
	}
	return lt, ev, nil
}

// replaySim times AtCall + Run with 4096 events pending, with 8, and with
// as many as the workload posts in a burst.
func replaySim(in *layerInputs, lt layerTimes) {
	nop := func(any) {}
	for _, c := range []struct {
		name  string
		depth int
	}{
		{"sim.ns_per_event.deep", 4096},
		{"sim.ns_per_event.shallow", 8},
		{"sim.ns_per_event.own", in.burst},
	} {
		eng := sim.New()
		lt[c.name] = replay(func(n int) int {
			done := 0
			for ; done < n; done += c.depth {
				now := eng.Now()
				for i := 0; i < c.depth; i++ {
					eng.AtCall(now+sim.Time(1+i), nop, nil)
				}
				eng.Run()
			}
			return done
		})
	}
}

// transportBurst is how many frames the drain replays that are compared
// with each other post per Run.
const transportBurst = 512

// replayTransport times fabric and ucx with no-op receivers on the
// Thor-Xeon wire at the workload's frame size. The replays the host-time
// attribution is built from post bursts of the workload's own length, so
// their engine events cost what sim.ns_per_event.own says; the single
// frame is priced shallow.
func replayTransport(in *layerInputs, lt layerTimes, ev simInside) error {
	p := testbed.ThorXeon()
	frame := make([]byte, ifunc.TruncatedLen(in.payload))
	newPair := func() (*sim.Engine, *ucx.Worker, *ucx.Worker) {
		eng := sim.New()
		net := fabric.New(eng, p.Net)
		ctx := ucx.NewContext(net)
		a := ctx.NewWorker(net.AddNode("a", p.March(), 1<<16))
		b := ctx.NewWorker(net.AddNode("b", p.March(), 1<<16))
		a.IfuncPoll, b.IfuncPoll = p.IfuncPoll, p.IfuncPoll
		a.AMDispatch, b.AMDispatch = p.AMDispatch, p.AMDispatch
		return eng, a, b
	}
	// bursts posts in bursts of burst, each followed by a Run, and
	// records host ns per post and what its engine events cost at simNS
	// each.
	bursts := func(name string, eng *sim.Engine, burst int, simNS float64, post func()) {
		var units, events uint64
		lt[name] = replay(func(n int) int {
			e0, done := eng.Executed(), 0
			for ; done < n; done += burst {
				for i := 0; i < burst; i++ {
					post()
				}
				eng.Run()
			}
			units += uint64(done)
			events += eng.Executed() - e0
			return done
		})
		ev[name] = simNS * float64(events) / float64(units)
	}

	ownDrain := 0
	if in.oneFramePerPoll {
		ownDrain = 1
	}
	eng, a, b := newPair()
	sink := func(*fabric.Message) {}
	own, shallow := lt["sim.ns_per_event.own"], lt["sim.ns_per_event.shallow"]
	bursts("fabric.ns_per_msg", eng, in.burst, own, func() { a.Node.SendNoCompletion(b.Node, frame, nil, sink) })

	for _, c := range []struct {
		name            string
		maxDrain, burst int
		simNS           float64
	}{
		{"ucx.ifunc_ns_per_frame.drain_all", 0, transportBurst, 0},
		{"ucx.ifunc_ns_per_frame.drain_1", 1, transportBurst, 0},
		{"ucx.ifunc_ns_per_frame.drain_1.burst4096", 1, 4096, 0},
		{"ucx.ifunc_ns_per_frame.drain_8", 8, transportBurst, 0},
		// At the workload's own queue depth and drain bound, and alone.
		{"ucx.ifunc_ns_per_frame.own", ownDrain, in.burst, own},
		{"ucx.ifunc_ns_per_frame.single", 1, 1, shallow},
	} {
		eng, a, b := newPair()
		b.MaxDrain = c.maxDrain
		b.SetIfuncDrain(func([]ucx.IfuncDelivery) {})
		ep := a.Connect(b)
		bursts(c.name, eng, c.burst, c.simNS, func() { ep.SendIfuncQuiet(frame, nil) })
	}

	eng, a, b = newPair()
	b.SetAMHandler(1, func(*ucx.Endpoint, uint64, []byte) {})
	ep := a.Connect(b)
	payload := make([]byte, in.payload)
	bursts("ucx.am_ns_per_msg", eng, in.burst, own, func() { ep.SendAM(1, 0, payload) })

	if in.region > 0 {
		eng, a, b = newPair()
		key := b.RegisterMem(0, 1<<16)
		ep = a.Connect(b)
		size := in.region
		if size > 1<<15 {
			size = 1 << 15
		}
		data := make([]byte, size)
		var st ucx.Status
		bursts("ucx.get_ns_per_op", eng, 8, 0, func() {
			op := ep.Get(0, size, key)
			op.Done.OnFire(func() { st |= ucx.Status(op.Done.Value()) })
		})
		bursts("ucx.put_ns_per_op", eng, 8, 0, func() {
			done := ep.Put(data, 0, key)
			done.OnFire(func() { st |= ucx.Status(done.Value()) })
		})
		if st != ucx.OK {
			return fmt.Errorf("one-sided replay failed: %v", st)
		}
	}
	return nil
}

// replayIfunc times frame building and parsing, content and chunk
// hashing, and a store intern, on the workload's own code section.
func replayIfunc(in *layerInputs, lt layerTimes) error {
	_, code, err := toolchain.BuildArchive(in.modules[0], toolchain.Options{Opt: 2, Debug: true, Triples: testbed.PaperTriples})
	if err != nil {
		return err
	}
	hdr := ifunc.Header{Kind: ifunc.KindBitcode, NameHash: ifunc.NameHash("replay"), SrcNode: 1, Seq: 7}
	payload := make([]byte, in.payload)
	buf := make([]byte, 0, ifunc.FullLen(len(payload), len(code)))
	lt["ifunc.build_ns_per_frame.trunc"] = replay(each(func(i int) {
		replaySink += len(ifunc.AppendTruncated(buf[:0], hdr, payload))
	}))
	lt["ifunc.build_ns_per_frame.full"] = replay(each(func(i int) {
		replaySink += len(ifunc.AppendBuild(buf[:0], hdr, payload, code))
	}))
	var f ifunc.Frame
	var perr error
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"ifunc.parse_ns_per_frame.trunc", ifunc.AppendTruncated(nil, hdr, payload)},
		{"ifunc.parse_ns_per_frame.full", ifunc.AppendBuild(nil, hdr, payload, code)},
	} {
		lt[c.name] = replay(each(func(i int) {
			if err := f.ParseInto(c.data); err != nil {
				perr = err
			}
		}))
	}
	if perr != nil {
		return perr
	}

	blob := code
	if in.region > 0 {
		blob = make([]byte, in.region)
		newRNG(1).Read(blob)
	}
	kib := float64(len(blob)) / 1024
	lt["ifunc.hash_ns_per_kib"] = replay(each(func(i int) {
		replaySink += int(ifunc.ContentHash(blob))
	})) / kib
	var chunks []uint64
	lt["ifunc.chunkhash_ns_per_kib"] = replay(each(func(i int) {
		chunks = ifunc.AppendChunkHashes(chunks[:0], blob)
	})) / kib
	st := ifunc.NewStore(nil)
	h := ifunc.ContentHash(blob)
	st.Intern(h, ifunc.BlobCode, blob, 0)
	lt["ifunc.store_intern_ns"] = replay(each(func(i int) {
		replaySink += len(st.Intern(h, ifunc.BlobCode, blob, 0))
	}))
	return nil
}

// replayCodegen times the compile-side layers over the workload's
// modules: frontend, optimiser, bitcode, toolchain, JIT and its parts,
// object decode and GOT patching.
func replayCodegen(in *layerInputs, lt layerTimes) error {
	var fail error
	note := func(err error) {
		if err != nil && fail == nil {
			fail = err
		}
	}
	if len(in.sources) > 0 {
		lt["minilang.compile_ns_per_module"] = replay(each(func(i int) {
			_, err := minilang.Compile("replay", in.sources[i%len(in.sources)])
			note(err)
		}))
	}
	mods := in.modules
	if len(mods) > 32 {
		mods = mods[:32]
	}
	march := isa.XeonE5()
	opts := toolchain.Options{Opt: 2, Debug: true, Triples: testbed.PaperTriples}

	lt["passes.optimize_ns_per_module"] = replay(each(func(i int) {
		note(passes.Optimize(mods[i%len(mods)].Clone(), passes.O2))
	}))
	lt["toolchain.build_ns_per_module"] = replay(each(func(i int) {
		_, _, err := toolchain.BuildArchive(mods[i%len(mods)], opts)
		note(err)
	}))

	// Per-module artefacts for the stages that consume them.
	var bcs, objs [][]byte
	var shipped []*ir.Module // the module a receiver selects from the archive
	var lowered []*mcode.CompiledModule
	var instrs, archiveBytes, bcBytes int
	for _, m := range mods {
		arch, raw, err := toolchain.BuildArchive(m, opts)
		if err != nil {
			return err
		}
		sel, err := arch.Select(march.Triple)
		if err != nil {
			return err
		}
		bc, err := bitcode.Encode(sel)
		if err != nil {
			return err
		}
		opt := sel.Clone()
		if err := passes.Optimize(opt, passes.O2); err != nil {
			return err
		}
		cm, err := mcode.Lower(opt, march)
		if err != nil {
			return err
		}
		obj, err := elfx.Build(cm)
		if err != nil {
			return err
		}
		bcs, objs = append(bcs, bc), append(objs, obj.Encode())
		shipped, lowered = append(shipped, sel), append(lowered, cm)
		instrs += cm.NumInstrs()
		archiveBytes += len(raw)
		bcBytes += len(bc)
	}
	perMod := float64(len(mods))
	lt["toolchain.archive_bytes"] = float64(archiveBytes) / perMod
	instrsPerMod := float64(instrs) / perMod
	lt[instrsPerModule] = instrsPerMod
	bcKiB := float64(bcBytes) / perMod / 1024

	lt["bitcode.encode_ns_per_kib"] = replay(each(func(i int) {
		_, err := bitcode.Encode(shipped[i%len(mods)])
		note(err)
	})) / bcKiB
	lt["bitcode.decode_ns_per_kib"] = replay(each(func(i int) {
		_, err := bitcode.Decode(bcs[i%len(mods)])
		note(err)
	})) / bcKiB

	// A cold Session.Compile: unique keys defeat the session cache.
	sess := jit.NewSession(march, stubLoader(), func(ir.Global) uint64 { return 0 })
	key := 0
	lt["jit.compile_ns_per_module"] = replay(each(func(i int) {
		key++
		_, _, _, err := sess.Compile(strconv.Itoa(key), shipped[i%len(mods)])
		note(err)
	}))

	lt["mcode.lower_ns_per_instr"] = replay(each(func(i int) {
		_, err := mcode.Lower(shipped[i%len(mods)], march)
		note(err)
	})) / instrsPerMod
	// Verify memoises on the module, so each call gets an unverified copy.
	lt["mcode.verify_ns_per_instr"] = replay(each(func(i int) {
		cm := *lowered[i%len(mods)]
		_, err := mcode.Verify(&cm)
		note(err)
	})) / instrsPerMod
	ld := stubLoader()
	lt["linker.patch_ns_per_module"] = replay(each(func(i int) {
		_, err := linker.PatchGOT(lowered[i%len(mods)], nil, ld)
		note(err)
	}))
	// Prepare on verified modules, so that it excludes the verifier.
	for _, cm := range lowered {
		if _, err := mcode.Verify(cm); err != nil {
			return err
		}
	}
	lt["mcode.prepare_ns_per_instr"] = replay(each(func(i int) {
		_, err := mcode.DefaultEngine.Prepare(lowered[i%len(mods)])
		note(err)
	})) / instrsPerMod
	lt["elfx.decode_ns_per_module"] = replay(each(func(i int) {
		obj, err := elfx.Decode(objs[i%len(mods)])
		if err == nil {
			_, err = obj.ToCompiled(march.Triple.Arch)
		}
		note(err)
	}))
	return fail
}

// tsiKernel is the TSI kernel's representative execution.
func tsiKernel() kernelRun {
	return kernelRun{mod: core.BuildTSI(), entry: "main", march: isa.XeonE5(), init: func([]byte) [3]uint64 {
		return [3]uint64{64, 1, 128}
	}}
}

// replayRun times the engine on the workload's kernels and on TSI.
func replayRun(in *layerInputs, lt layerTimes) error {
	run := func(k kernelRun) (nsPerExec, stepsPerExec float64, err error) {
		ma, env, err := newMachine(k.mod, k.march)
		if err != nil {
			return 0, 0, err
		}
		args := k.init(env.Memory)
		res, err := ma.Run(k.entry, args[0], args[1], args[2])
		if err != nil {
			return 0, 0, fmt.Errorf("%s.%s: %w", k.mod.Name, k.entry, err)
		}
		steps := float64(res.Steps)
		ns := replay(each(func(i int) {
			ma.Reset()
			if _, e := ma.Run(k.entry, args[0], args[1], args[2]); e != nil {
				err = e
			}
		}))
		return ns, steps, err
	}
	ns, _, err := run(tsiKernel())
	if err != nil {
		return err
	}
	lt["mcode.run_ns_per_exec.tsi"] = ns
	var totalNS, totalSteps float64
	for _, k := range in.kernels {
		ns, steps, err := run(k)
		if err != nil {
			return err
		}
		totalNS += ns
		totalSteps += steps
	}
	lt["mcode.run_ns_per_step"] = ratio(totalNS, totalSteps)
	return nil
}

// replayPlan times Plan + Commit under the queueing policy over a grid
// of requests spanning the offload scenario's ranges: region sizes from
// 1 to 24 KiB, cheap and heavy kernels, warm and cold code, eight
// destinations.
func replayPlan(lt layerTimes) {
	p := testbed.ThorXeon()
	model := place.CostModel{
		Net:    p.Net,
		Local:  place.NodeTraits{March: p.March(), ExecMult: 1, IfuncPoll: p.IfuncPoll},
		Remote: place.NodeTraits{March: p.March(), ExecMult: 2.5, IfuncPoll: p.IfuncPoll},
	}
	var grid []place.Request
	for _, data := range []int{1 << 10, 4 << 10, 12 << 10, 24 << 10} {
		for _, steps := range []float64{12, 2048, 8192 * 4} {
			for _, warm := range []bool{true, false} {
				for dst := 1; dst < offloadGroupNodes; dst++ {
					frame := ifunc.TruncatedLen(64)
					if !warm {
						frame = ifunc.FullLen(64, 6<<10)
					}
					grid = append(grid, place.Request{
						Dst: dst, PayloadLen: 64, DataBytes: data, WriteBack: steps != 2048,
						PutBytes: 2 << 10, GetBytes: data, TypeHash: uint64(steps) + 1,
						FrameBytes: frame, RemoteRegistered: warm, LocalRegistered: true,
						RemoteRegCost: 800 * sim.Microsecond, LocalRegCost: 800 * sim.Microsecond,
						LocalRegFanout: offloadGroupNodes - 1, MeanSteps: steps, Measured: true,
						PullViable: true, ShipViable: true,
					})
				}
			}
		}
	}
	var pl place.Planner
	now := sim.Time(0)
	lt["place.plan_ns_per_req"] = replay(each(func(i int) {
		req := grid[i%len(grid)]
		now += 2 * sim.Microsecond
		req.Now = now
		d, err := pl.Plan(place.PolicyCostModelQueue, model, req)
		if err != nil {
			panic(err) // every request of the grid has a viable route
		}
		pl.Commit(d)
	}))
}

// chaseKernels are activations of the pointer chaser as dapc-chase
// runs them: server 0's shard of an eight-server table, so that a chase
// loads a few local entries and then forwards itself through the stubbed
// send_self. Sixty-four start addresses average the run lengths.
func chaseKernels() []kernelRun {
	perm := dapcTable(newRNG(1), dapcServers*dapcShard)
	var ks []kernelRun
	for k := 0; k < 64; k++ {
		start := uint64(k * dapcShard / 64)
		ks = append(ks, kernelRun{mod: core.BuildChaser(), entry: "chase", march: isa.CortexA72(), init: func(mem []byte) [3]uint64 {
			const payload, ctx, table = 64, 128, 4096
			for i, v := range perm[:dapcShard] {
				binary.LittleEndian.PutUint64(mem[table+8*i:], v)
			}
			binary.LittleEndian.PutUint64(mem[ctx+core.SrvCtxTableBase:], table)
			binary.LittleEndian.PutUint64(mem[ctx+core.SrvCtxShardSize:], dapcShard)
			binary.LittleEndian.PutUint64(mem[ctx+core.SrvCtxNumServers:], dapcServers)
			binary.LittleEndian.PutUint64(mem[ctx+core.SrvCtxFirstServer:], 1)
			binary.LittleEndian.PutUint64(mem[payload+core.ChaseAddr:], start)
			binary.LittleEndian.PutUint64(mem[payload+core.ChaseDepth:], dapcDepth)
			return [3]uint64{payload, core.ChaseBytes, ctx}
		}})
	}
	return ks
}
