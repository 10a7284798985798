package main

import (
	"encoding/binary"
	"fmt"
	"strings"

	"threechains/internal/core"
	"threechains/internal/ir"
	"threechains/internal/isa"
	"threechains/internal/minilang"
	"threechains/internal/testbed"
	"threechains/internal/toolchain"
)

// Cold deployment: every operation compiles, registers and ships a
// kernel its cluster has never seen. The kernel family is a fixed
// scenario; the seed draws which kernels a round deploys, in which
// order, and every payload.
const (
	deployScenario = 20220907
	deployFamily   = 384 // distinct kernels; a round deploys size.deployRound of them
	deployDests    = 4   // 2 Xeon and 2 BlueField-2 destinations
	deployWarm     = 3   // further sends per destination after the cold one
)

// deployKernel is one member of the seeded kernel family.
type deployKernel struct {
	name   string
	src    string
	binary bool       // shipped as per-ISA objects, not fat bitcode
	ref    *ir.Module // compiled once in set-up for the reference interpreter
}

// genKernelSource writes kernel k: it folds the payload word into an
// accumulator kept in slot k of the target region through a random
// sequence of arithmetic, branches, short loops and helper calls.
func genKernelSource(rng *rng, k int) string {
	var sb strings.Builder
	c := func() int64 { return 3 + 2*rng.Int63n(1<<20) }
	helper := rng.Intn(3) == 0
	if helper {
		fmt.Fprintf(&sb, "function mix(a::Int, b::Int)::Int\n    return a * %d + (b ^ %d)\nend\n\n", c(), c())
	}
	sb.WriteString("function main(payload::Ptr, len::Int, target::Ptr)::Int\n")
	sb.WriteString("    x = load64(payload, 0)\n")
	fmt.Fprintf(&sb, "    acc = load64(target, %d)\n", 8*k)
	for n := 6 + rng.Intn(11); n > 0; n-- {
		switch rng.Intn(6) {
		case 0:
			fmt.Fprintf(&sb, "    acc = acc * %d + x\n", c())
		case 1:
			fmt.Fprintf(&sb, "    acc = (acc ^ %d) + (x & %d)\n", c(), c())
		case 2:
			fmt.Fprintf(&sb, "    x = x + (acc | %d) - %d\n", c(), c())
		case 3:
			fmt.Fprintf(&sb, "    if (acc & %d) == 0\n        acc = acc + %d\n    else\n        acc = acc - x\n    end\n", 1+rng.Intn(7), c())
		case 4:
			fmt.Fprintf(&sb, "    i = 0\n    while i < %d\n        acc = acc * %d + i\n        i = i + 1\n    end\n", 2+rng.Intn(7), c())
		default:
			if helper {
				sb.WriteString("    acc = mix(acc, x)\n")
			} else {
				fmt.Fprintf(&sb, "    acc = acc - (x * %d)\n", c())
			}
		}
	}
	fmt.Fprintf(&sb, "    store64(target, %d, acc)\n    return acc\nend\n", 8*k)
	return sb.String()
}

// deployWorld builds a fresh five-node cluster for every round and
// deploys the whole family into it.
type deployWorld struct {
	e       *env
	family  []deployKernel
	marchs  []*isa.MicroArch
	rng     *rng
	retired counters

	cl      *core.Cluster
	src     *core.Runtime
	handles []*core.Handle
	results []uint64 // per destination: base of the result slots
	// picked are the kernels this round deploys, a seeded draw of
	// size.deployRound distinct members of the family, in order.
	picked []int
	// payloads[k][d][j] is the word sent to destination d by the j-th
	// send of kernel k this round.
	payloads [][deployDests][1 + deployWarm]uint64

	lat  []float64
	hash *hash64
}

func buildDeploy(e *env) (world, error) {
	done := e.phase("setup.build")
	defer done()
	w := &deployWorld{
		e: e, rng: newRNG(e.seed), hash: newHash(),
		marchs: []*isa.MicroArch{isa.XeonE5(), isa.CortexA72()},
	}
	gen := newRNG(deployScenario)
	for k := 0; k < deployFamily; k++ {
		dk := deployKernel{name: fmt.Sprintf("k%03d", k), src: genKernelSource(gen, k), binary: k%4 == 3}
		ref, err := minilang.Compile(dk.name, dk.src)
		if err != nil {
			return nil, fmt.Errorf("kernel %d: %w\n%s", k, err, dk.src)
		}
		dk.ref = ref
		w.family = append(w.family, dk)
	}
	w.payloads = make([][deployDests][1 + deployWarm]uint64, deployFamily)
	return w, nil
}

func (w *deployWorld) ops() int { return size.deployRound }

// begin retires the previous round's cluster and builds an empty one: a
// Xeon source, two Xeon and two BlueField-2 destinations.
func (w *deployWorld) begin() error {
	if w.cl != nil {
		c := w.liveStats()
		w.retired.add(&c)
	}
	p := testbed.ThorMixed()
	xeon := testbed.ThorXeon().March
	specs := []core.NodeSpec{{Name: "src", March: xeon(), MemBytes: nodeMem, Engine: w.e.engine}}
	for d := 0; d < deployDests; d++ {
		march := xeon
		if d >= deployDests/2 {
			march = p.March
		}
		specs = append(specs, core.NodeSpec{Name: fmt.Sprintf("dst%d", d), March: march(), MemBytes: nodeMem, Engine: w.e.engine})
	}
	w.cl = core.NewCluster(p.Net, specs)
	w.e.attachTo(w.cl)
	w.src = w.cl.Runtime(0)
	w.results = w.results[:0]
	for _, rt := range w.cl.Runtimes {
		rt.Worker.AMDispatch = p.AMDispatch
		rt.Worker.IfuncPoll = p.IfuncPoll
		if rt != w.src {
			rt.TargetPtr = rt.Node.Alloc(8 * deployFamily)
			w.results = append(w.results, rt.TargetPtr)
		}
	}
	w.handles = w.handles[:0]
	w.picked = w.rng.Perm(deployFamily)[:size.deployRound]
	for _, k := range w.picked {
		for d := range w.payloads[k] {
			for j := range w.payloads[k][d] {
				w.payloads[k][d][j] = w.rng.Uint64()
			}
		}
	}
	return nil
}

// deploy compiles kernel k from source and registers it on the source
// node: fat bitcode for two ISAs, or one object per ISA.
func (w *deployWorld) deploy(k int) (*core.Handle, error) {
	dk := &w.family[k]
	mod, err := minilang.Compile(dk.name, dk.src)
	if err != nil {
		return nil, err
	}
	if dk.binary {
		return w.src.RegisterBinary(dk.name, mod, w.marchs)
	}
	_, raw, err := toolchain.BuildArchive(mod, toolchain.Options{Opt: 2, Debug: true, Triples: testbed.PaperTriples})
	if err != nil {
		return nil, err
	}
	return w.src.RegisterArchive(dk.name, raw)
}

func (w *deployWorld) run(rec *recorder) error {
	var buf [8]byte
	send := func(h *core.Handle, k, j int) error {
		t0 := now()
		for d := 0; d < deployDests; d++ {
			binary.LittleEndian.PutUint64(buf[:], w.payloads[k][d][j])
			if err := w.src.SendQuiet(1+d, h, "main", buf[:]); err != nil {
				return err
			}
		}
		rec.issue += since(t0)
		return nil
	}
	for _, k := range w.picked {
		start := w.cl.Eng.Now()
		t0 := now()
		h, err := w.deploy(k)
		rec.register += since(t0)
		if err != nil {
			return fmt.Errorf("kernel %d: %w", k, err)
		}
		w.handles = append(w.handles, h)
		// Cold: the code travels and every destination compiles or loads it.
		if err := send(h, k, 0); err != nil {
			return err
		}
		w.cl.Run()
		// Warm: truncated frames against the new registrations.
		for j := 1; j <= deployWarm; j++ {
			if err := send(h, k, j); err != nil {
				return err
			}
		}
		w.cl.Run()
		w.lat = append(w.lat, (w.cl.Eng.Now() - start).Micros())
		// Kernels differ in size, so each is a slice class of its own.
		rec.slice(k, 1)
	}
	return nil
}

// check replays every destination's payload sequence through ir's
// reference interpreter on the unoptimised module and compares the
// accumulator each destination holds.
func (w *deployWorld) check() (int, error) {
	failed := 0
	env := ir.NewSimpleEnv(1 << 16)
	const payloadAt, targetAt = 0, 4096
	for _, k := range w.picked {
		for d := 0; d < deployDests; d++ {
			env.StoreU64(targetAt+uint64(8*k), 0)
			var want uint64
			for j := 0; j <= deployWarm; j++ {
				env.StoreU64(payloadAt, w.payloads[k][d][j])
				ip := ir.NewInterp(w.family[k].ref, env, ir.ExecLimits{StackBase: 32 << 10, StackSize: 16 << 10})
				res, err := ip.Run("main", payloadAt, 8, targetAt)
				if err != nil {
					return failed, fmt.Errorf("reference run of kernel %d: %w", k, err)
				}
				want = res.Value
			}
			got := binary.LittleEndian.Uint64(w.cl.Runtime(1 + d).Node.Mem()[w.results[d]+uint64(8*k):])
			w.hash.u64(got)
			if got != want {
				failed++
			}
		}
	}
	for _, rt := range w.cl.Runtimes {
		if rt.LastExecErr != nil {
			return failed, fmt.Errorf("on %s: %w", rt.Node.Name, rt.LastExecErr)
		}
		if rt.LastDropErr != nil {
			return failed, fmt.Errorf("on %s: %w", rt.Node.Name, rt.LastDropErr)
		}
	}
	return failed, nil
}

// latencyPass runs one more round; Eng.Now() deltas time every
// deployment of every round.
func (w *deployWorld) latencyPass() ([]float64, error) {
	if err := w.begin(); err != nil {
		return nil, err
	}
	err := w.run(&recorder{})
	return w.lat, err
}

func (w *deployWorld) liveStats() counters {
	c := clusterCounters(w.cl)
	for _, h := range w.handles {
		for _, rt := range w.cl.Runtimes[1:] {
			if reg, ok := rt.Reg.Get(h.Hash); ok {
				c[cSteps] += reg.TotalSteps
			}
		}
	}
	return c
}

func (w *deployWorld) stats() counters {
	c := w.retired
	c[cStoreBytes] = 0 // a gauge: only the live cluster's stores count
	if w.cl != nil {
		l := w.liveStats()
		c.add(&l)
	}
	return c
}

func (w *deployWorld) resultHash() uint64 { return w.hash.sum() }

func (w *deployWorld) inputs() (*layerInputs, error) {
	in := &layerInputs{payload: 8, bitcodeRegs: 0.75, binaryRegs: 0.25, burst: deployWarm}
	for k, dk := range w.family {
		in.sources = append(in.sources, dk.src)
		in.modules = append(in.modules, dk.ref)
		if k < 32 {
			in.kernels = append(in.kernels, kernelRun{mod: dk.ref, entry: "main", march: w.marchs[k%2], init: func(mem []byte) [3]uint64 {
				binary.LittleEndian.PutUint64(mem[64:], 0x9e3779b97f4a7c15)
				return [3]uint64{64, 8, 4096}
			}})
		}
	}
	return in, nil
}
