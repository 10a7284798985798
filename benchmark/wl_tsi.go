package main

import (
	"encoding/binary"
	"fmt"

	"threechains/internal/core"
	"threechains/internal/ir"
	"threechains/internal/isa"
	"threechains/internal/sim"
	"threechains/internal/testbed"
	"threechains/internal/toolchain"
	"threechains/internal/ucx"
)

// nodeMem is the heap of the nodes the benchmark builds; only the
// offload drivers, which stage pulled regions, need more. The program's
// 16 MiB default makes set-up a measurement of page faults.
const nodeMem = 256 << 10

// tsiMode is one of the paper's five Target-Side-Increment code-movement
// modes (Section IV-A).
type tsiMode int

const (
	tsiAM tsiMode = iota
	tsiBitcodeCached
	tsiBitcodeUncached
	tsiBinaryCached
	tsiBinaryUncached
)

var tsiModes = []tsiMode{tsiAM, tsiBitcodeCached, tsiBitcodeUncached, tsiBinaryCached, tsiBinaryUncached}

const tsiAMID = 1

// tsiCell is one two-node TSI experiment: a profile, a mode and a drain
// bound.
type tsiCell struct {
	cl       *core.Cluster
	src, dst *core.Runtime
	h        *core.Handle
	am       *ucx.Endpoint
	counter  uint64 // address of the target counter on dst
	sent     uint64
	payload  [1]byte
}

func newTSICell(e *env, p testbed.Profile, mode tsiMode, maxDrain int) (*tsiCell, error) {
	done := e.phase("setup.build")
	cl := core.NewCluster(p.Net, []core.NodeSpec{
		{Name: p.Name + "-src", March: p.March(), MemBytes: nodeMem, Engine: e.engine},
		{Name: p.Name + "-dst", March: p.March(), MemBytes: nodeMem, Engine: e.engine},
	})
	e.attachTo(cl)
	c := &tsiCell{cl: cl, src: cl.Runtime(0), dst: cl.Runtime(1)}
	for _, rt := range cl.Runtimes {
		rt.Worker.AMDispatch = p.AMDispatch
		rt.Worker.IfuncPoll = p.IfuncPoll
		rt.Worker.MaxDrain = maxDrain
	}
	c.counter = c.dst.Node.Alloc(8)
	c.dst.TargetPtr = c.counter
	mod := core.BuildTSI()
	var raw []byte
	if mode == tsiBitcodeCached || mode == tsiBitcodeUncached {
		var err error
		_, raw, err = toolchain.BuildArchive(mod, toolchain.Options{Opt: 2, Debug: true, Triples: p.Triples})
		if err != nil {
			return nil, err
		}
	}
	done()

	done = e.phase("setup.register")
	var err error
	switch mode {
	case tsiAM:
		err = c.dst.PredeployAM(tsiAMID, "tsi", mod)
		c.am = c.src.Worker.Connect(c.dst.Worker)
	case tsiBitcodeCached, tsiBitcodeUncached:
		c.h, err = c.src.RegisterArchive("tsi", raw)
	default:
		c.h, err = c.src.RegisterBinary("tsi", mod, []*isa.MicroArch{p.March()})
	}
	done()
	if err != nil {
		return nil, err
	}

	// One message registers the type at the destination, so that the
	// JIT or load is paid here and never in a measured round.
	done = e.phase("setup.warm")
	defer done()
	if err := c.post(); err != nil {
		return nil, err
	}
	cl.Run()
	if mode == tsiBitcodeUncached || mode == tsiBinaryUncached {
		c.src.DisableSendCache = true
	}
	return c, nil
}

// post sends one TSI message without waiting for anything.
func (c *tsiCell) post() error {
	c.sent++
	if c.am != nil {
		c.am.SendAM(tsiAMID, 0, c.payload[:])
		return nil
	}
	return c.src.SendQuiet(1, c.h, "main", c.payload[:])
}

// burst posts n messages back to back and runs the cluster until idle.
func (c *tsiCell) burst(n int, rec *recorder) error {
	t0 := now()
	for i := 0; i < n; i++ {
		if err := c.post(); err != nil {
			return err
		}
	}
	rec.issue += since(t0)
	c.cl.Run()
	return nil
}

// observe installs an execution observer that appends to *lat the
// virtual time from *posted to each execution, in microseconds.
func (c *tsiCell) observe(posted *sim.Time, lat *[]float64) {
	c.dst.Observer = func(_, _ string, _ uint64, when sim.Time) {
		*lat = append(*lat, (when - *posted).Micros())
	}
}

// count reads the target counter back from the destination's memory.
func (c *tsiCell) count() uint64 {
	return binary.LittleEndian.Uint64(c.dst.Node.Mem()[c.counter:])
}

// steps is the lifetime dynamic instruction count of the TSI kernel at
// the destination (0 for the Active Message mode, whose registration
// is private to its handler).
func (c *tsiCell) steps() uint64 {
	if c.h == nil {
		return 0
	}
	if reg, ok := c.dst.Reg.Get(c.h.Hash); ok {
		return reg.TotalSteps
	}
	return 0
}

// burstPlan splits n*mean messages into n bursts whose sizes differ
// from mean by up to an eighth, drawn in pairs that cancel, so the
// total is fixed and only the burst lengths depend on the seed.
func burstPlan(rng *rng, plan []int, mean int) {
	for i := range plan {
		plan[i] = mean
	}
	for i := 0; i+1 < len(plan); i += 2 {
		d := rng.Intn(mean/4+1) - mean/8
		plan[i] += d
		plan[i+1] -= d
	}
}

// seqPlan gives every slice one sequential message, then lets a seeded
// quarter of the slices drop theirs or take a second, and returns how
// many messages that makes.
func seqPlan(rng *rng, plan []int) int {
	total := len(plan)
	for i := range plan {
		plan[i] = 1
	}
	for k := 0; k <= len(plan)/4; k++ {
		i := rng.Intn(len(plan))
		if rng.Intn(2) == 0 && plan[i] > 0 {
			plan[i]--
			total--
		} else {
			plan[i]++
			total++
		}
	}
	return total
}

// tsiWorld drives one or more cells; both TSI workloads are instances.
// A round is a sequence of slices; in each, every cell sends its share
// of single messages, one per Run as in the paper's latency loop, and
// then one pipelined burst.
type tsiWorld struct {
	cells []*tsiCell
	rng   *rng
	// slices per round, mean burst length, and whether the cells also
	// send sequential messages, one per slice on average.
	slices, burstLen int
	sequential       bool
	// sent and counter values at the last check, per cell.
	checked, counted []uint64
	// This round's burst lengths and sequential counts, per cell and slice.
	bursts, seqs [][]int
}

// init records the warm-up messages as already checked.
func (w *tsiWorld) init() *tsiWorld {
	for _, c := range w.cells {
		w.checked = append(w.checked, c.sent)
		w.counted = append(w.counted, c.sent)
		w.bursts = append(w.bursts, make([]int, w.slices))
		w.seqs = append(w.seqs, make([]int, w.slices))
	}
	return w
}

func (w *tsiWorld) ops() int {
	n := w.slices * w.burstLen
	if w.sequential {
		n += w.slices
	}
	return len(w.cells) * n
}

func (w *tsiWorld) begin() error {
	for i := range w.cells {
		burstPlan(w.rng, w.bursts[i], w.burstLen)
		if w.sequential {
			// The first burst absorbs the difference, so a round's total
			// is fixed while its share of sequential messages is seeded.
			w.bursts[i][0] -= seqPlan(w.rng, w.seqs[i]) - w.slices
		}
	}
	return nil
}

// round runs one round; before each Run it stores the virtual posting
// time of the messages in flight through posted, when that is set.
func (w *tsiWorld) round(rec *recorder, posted *sim.Time) error {
	for s := 0; s < w.slices; s++ {
		for i, c := range w.cells {
			ops := 0
			for k := -w.seqs[i][s]; k <= 0; k++ {
				n := 1 // a sequential message
				if k == 0 {
					n = w.bursts[i][s]
				}
				if posted != nil {
					*posted = c.cl.Eng.Now()
				}
				if err := c.burst(n, rec); err != nil {
					return err
				}
				ops += n
			}
			// Cells differ in mode and profile, so each is a slice class.
			rec.slice(i, ops)
		}
	}
	return nil
}

func (w *tsiWorld) run(rec *recorder) error { return w.round(rec, nil) }

func (w *tsiWorld) check() (int, error) {
	failed := 0
	for i, c := range w.cells {
		// Every message sent since the last check must have incremented
		// the counter exactly once.
		got := c.count()
		if d := int64(c.sent-w.checked[i]) - int64(got-w.counted[i]); d < 0 {
			failed += int(-d)
		} else {
			failed += int(d)
		}
		w.checked[i], w.counted[i] = c.sent, got
		if err := c.dst.LastExecErr; err != nil {
			return failed, fmt.Errorf("tsi cell %d: %w", i, err)
		}
	}
	return failed, nil
}

func (w *tsiWorld) latencyPass() ([]float64, error) {
	var lat []float64
	var posted sim.Time
	for _, c := range w.cells {
		c.observe(&posted, &lat)
	}
	err := w.begin()
	if err == nil {
		err = w.round(&recorder{}, &posted)
	}
	for _, c := range w.cells {
		c.dst.Observer = nil
	}
	return lat, err
}

func (w *tsiWorld) stats() counters {
	var s counters
	for _, c := range w.cells {
		cc := clusterCounters(c.cl)
		cc[cSteps] = c.steps()
		s.add(&cc)
	}
	return s
}

func (w *tsiWorld) resultHash() uint64 {
	h := newHash()
	for _, c := range w.cells {
		h.u64(c.count())
	}
	return h.sum()
}

// buildTSIStream is the warm per-message path at the smallest frame:
// cached bitcode on Thor-Xeon, whole-queue drains, bursts of about 4096.
func buildTSIStream(e *env) (world, error) {
	c, err := newTSICell(e, testbed.ThorXeon(), tsiBitcodeCached, 0)
	if err != nil {
		return nil, err
	}
	return (&tsiWorld{
		cells: []*tsiCell{c}, rng: newRNG(e.seed),
		slices: size.tsiStreamBursts, burstLen: 4096,
	}).init(), nil
}

// buildTSIPaper is the paper's Section V method: every mode on every
// profile, one frame per poll, sequential latency messages and
// 512-message pipelined bursts.
func buildTSIPaper(e *env) (world, error) {
	w := &tsiWorld{rng: newRNG(e.seed), slices: size.tsiPaperBursts, burstLen: 512, sequential: true}
	for _, p := range testbed.All() {
		for _, mode := range tsiModes {
			c, err := newTSICell(e, p, mode, 1)
			if err != nil {
				return nil, fmt.Errorf("%s mode %d: %w", p.Name, mode, err)
			}
			w.cells = append(w.cells, c)
		}
	}
	return w.init(), nil
}

func (w *tsiWorld) inputs() (*layerInputs, error) {
	return &layerInputs{
		payload: 1, modules: []*ir.Module{core.BuildTSI()}, kernels: []kernelRun{tsiKernel()},
		oneFramePerPoll: w.cells[0].dst.Worker.MaxDrain == 1, burst: w.burstLen,
	}, nil
}
