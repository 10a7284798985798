package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"threechains/internal/core"
)

// env is what a workload's builder receives: the seed its inputs derive
// from, the execution engine of every node ("" is the default), an
// optional hook called on every cluster it creates (the traced run
// attaches its sinks there) and an optional host-span recorder.
type env struct {
	seed   int64
	engine string
	attach func(*core.Cluster)
	spans  *hostTrace
}

// phase opens a named part of set-up and returns the function that
// closes it.
func (e *env) phase(name string) func() { return e.spans.begin(name, "setup") }

func (e *env) attachTo(cl *core.Cluster) {
	if e.attach != nil {
		e.attach(cl)
	}
}

// world is one built instance of a workload: clusters, registered
// modules and warm caches. Every method is deterministic in the seed.
type world interface {
	// ops is the fixed number of operations in one round.
	ops() int
	// begin does a round's untimed preparation.
	begin() error
	// run issues one round and drives it to quiescence, marking the end
	// of each of its slices on rec. It adds the host time spent inside
	// its own Send/SendQuiet/StartOffloadStream calls to rec.issue and
	// inside its registrations to rec.register; the rest of the round is
	// Cluster.Run.
	run(rec *recorder) error
	// check verifies the outputs of the round just run and returns how
	// many operations failed.
	check() (failed int, err error)
	// latencyPass runs one round with observers attached and returns
	// each operation's virtual latency in microseconds.
	latencyPass() ([]float64, error)
	// stats is the cumulative count over every cluster the world has
	// driven, retired ones included.
	stats() counters
	// resultHash folds every output value produced so far.
	resultHash() uint64
	// inputs hands the layer replays the workload's own kernels, frame
	// sizes and sources.
	inputs() (*layerInputs, error)
}

// workload names one of the five benchmark workloads.
type workload struct {
	name  string
	why   string
	build func(e *env) (world, error)
	// verify is an optional check of the program against a published
	// reference, run once per timed run.
	verify func(out io.Writer) error
}

// sizes are the frozen op counts of one round of each workload, sized on
// the 2-core build host so that a round takes 0.2 to 0.3 s, and the
// floor under every layer replay loop.
type sizes struct {
	minRounds          int // enough samples for a median and an upper percentile
	tsiStreamBursts    int // bursts of about 4096 messages
	tsiPaperBursts     int // bursts of about 512 messages, per cell
	dapcChases         int
	deployRound        int // kernels deployed per round; divides deployFamily
	offloadOpsPerGroup int
	replayMin          time.Duration
	setupBudget        time.Duration
	// maxAttributed fails a traced run whose layer shares sum higher: the
	// shares partition host time, so a sum above 1 by more than the
	// quarter the host's phases move any timing here means some work is
	// paid for twice. 0 sets no limit.
	maxAttributed float64
}

var fullSize = sizes{
	minRounds: 8, tsiStreamBursts: 88, tsiPaperBursts: 16, dapcChases: 60,
	deployRound: 128, offloadOpsPerGroup: 300, replayMin: 50 * time.Millisecond, setupBudget: time.Second,
	maxAttributed: 1.25,
}

// size is what the builders read. The package's tests swap in rounds a
// hundred times smaller so that the whole harness runs in seconds; their
// timings mean nothing, so they set no limit on the attribution.
var size = fullSize

// roundsPerSecond is the frozen calibration: every round was sized to
// take about a quarter of a second on the 2-core build host, so a run of
// -seconds s does 4s rounds. The round count is a pure function of the
// arguments, never of the clock.
const roundsPerSecond = 4

func rounds(seconds int) int {
	n := seconds * roundsPerSecond
	if n < size.minRounds {
		n = size.minRounds
	}
	return n
}

// warmRounds are run and checked before anything is measured, so pools,
// queues and the Go heap reach their steady size.
const warmRounds = 2

// A run builds its world setupRepeats times at least, and up to
// maxSetupRepeats times while the builds have taken less than
// size.setupBudget together.
const (
	setupRepeats    = 5
	maxSetupRepeats = 200
)

// recorder times a round from inside: the host time the world spends in
// its own issuing calls and in registration, and the round's slices. A
// slice is a few milliseconds of a round whose work is the same whenever
// it recurs: a burst, a chase, one kernel's deployment. Slices that do
// different work carry different class numbers.
//
// The host this benchmark was built on is disturbed from outside the
// virtual machine in episodes that last from tens of milliseconds to
// minutes and slow memory-heavy code by up to half, so that the median
// round of dapc-chase read 3.8 ms per chase in one run and 5.4 ms in
// the next. A few milliseconds are short enough to fall between the
// episodes: over six runs whose medians stood at 5.3 ms, the first
// percentile of per-chase times stayed between 3.45 and 3.59 ms. So
// beside the median round, which is what a user pays, the floor of the
// slices is reported as host_floor_ns_per_op, which is what the code
// costs when nothing else, the collector included, gets in its way.
type recorder struct {
	issue, register time.Duration
	last            time.Time
	classes         []sliceClass
}

// sliceClass holds the per-op wall times of the slices of one class.
type sliceClass struct {
	ops  int
	wall []float64
}

// start opens the first slice of a round.
func (r *recorder) start() { r.last = now() }

// slice closes a slice of ops operations and opens the next.
func (r *recorder) slice(class, ops int) {
	t := now()
	for len(r.classes) <= class {
		r.classes = append(r.classes, sliceClass{})
	}
	c := &r.classes[class]
	c.ops += ops
	c.wall = append(c.wall, float64(t.Sub(r.last).Nanoseconds())/float64(ops))
	r.last = t
}

// floorQuantile is the quantile of a class's samples taken as its
// undisturbed cost: low enough to fall between episodes of interference,
// high enough that one lucky sample in thousands does not set it.
const floorQuantile = 0.01

// poolBelow is the number of samples under which a class cannot find
// its own floor: cold-deploy sees each of its 384 kernels a dozen times
// in a run.
const poolBelow = 100

// floor sums, over the classes, the class's floor times the operations
// it covered. Classes with fewer than poolBelow samples share one floor:
// interference multiplies what a slice costs, so each of their samples
// is divided by its class's median, the floor of the pooled ratios is
// taken, and every such class counts its median times that ratio.
func (r *recorder) floor() float64 {
	total, pooledMedians := 0.0, 0.0
	var pooled []float64
	for i := range r.classes {
		c := &r.classes[i]
		if len(c.wall) >= poolBelow {
			total += float64(c.ops) * quantile(c.wall, floorQuantile)
			continue
		}
		m := median(c.wall)
		if len(c.wall) == 0 || m <= 0 {
			continue
		}
		for _, x := range c.wall {
			pooled = append(pooled, x/m)
		}
		pooledMedians += float64(c.ops) * m
	}
	if len(pooled) > 0 {
		total += pooledMedians * quantile(pooled, floorQuantile)
	}
	return total
}

// measured is what a sequence of timed rounds yields.
type measured struct {
	rounds int
	ops    int // operations per round
	// Per-round samples, per op: wall time, and the parts of it spent in
	// the benchmark's own issuing calls and in registration.
	wallNS, issueNS, registerNS []float64
	// wallFloor is the floor over the slices of every round, per op.
	wallFloor float64
	// cpuNS is the process's user and system time over the rounds, per
	// op: it holds what the collector did on the second core.
	cpuNS         float64
	allocs, bytes float64 // per op
	// gcFrac is the collector's share of that CPU time.
	gcFrac float64
	delta  counters
	failed int
}

// hostNS is the host cost of an operation: the median round.
func (m *measured) hostNS() float64 { return median(m.wallNS) }

// runRounds runs n rounds of w, timing each. Only w.run is inside the
// timed section; begin, check and the optional after hook are not.
func runRounds(w world, n int, spans *hostTrace, after func(round int)) (*measured, error) {
	m := &measured{rounds: n, ops: w.ops()}
	alloc := newAllocCounter()
	before := w.stats()
	rec := &recorder{}
	var objs, bytes uint64
	var gc float64
	var cpu time.Duration
	for r := 0; r < n; r++ {
		if err := w.begin(); err != nil {
			return nil, fmt.Errorf("round %d begin: %w", r, err)
		}
		rec.issue, rec.register = 0, 0
		o0, b0, g0 := alloc.read()
		c0 := cpuTime()
		t0 := now()
		rec.start()
		err := w.run(rec)
		wall := since(t0)
		c1 := cpuTime()
		o1, b1, g1 := alloc.read()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		// Issuing and registration are interleaved with Cluster.Run; the
		// spans draw each one's total, in that order, from the round's start.
		issued, registered := t0.Add(rec.issue), t0.Add(rec.issue+rec.register)
		spans.add("round.issue", "round", r, t0, issued)
		if rec.register > 0 {
			spans.add("round.register", "round", r, issued, registered)
		}
		spans.add("round.run", "round", r, registered, t0.Add(wall))
		objs += o1 - o0
		bytes += b1 - b0
		gc += g1 - g0
		cpu += c1 - c0
		perOp := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(m.ops) }
		m.wallNS = append(m.wallNS, perOp(wall))
		m.issueNS = append(m.issueNS, perOp(rec.issue))
		m.registerNS = append(m.registerNS, perOp(rec.register))
		tc := now()
		failed, err := w.check()
		spans.add("round.check", "round", r, tc, now())
		if err != nil {
			return nil, fmt.Errorf("round %d check: %w", r, err)
		}
		m.failed += failed
		if after != nil {
			after(r)
		}
	}
	total := float64(n * m.ops)
	m.wallFloor = rec.floor() / total
	m.cpuNS = float64(cpu.Nanoseconds()) / total
	m.allocs = float64(objs) / total
	m.bytes = float64(bytes) / total
	m.gcFrac = ratio(gc, cpu.Seconds())
	m.delta = w.stats().sub(before)
	return m, nil
}

// liveHeapMiB is the heap still reachable after two forced collections:
// sync.Pool keeps what one collection dropped until the next, and
// whether a run's last automatic collection came early or late would
// otherwise move the live heap of tsi-stream between 1.25 and 1.94 MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// failures counts what the program itself reported as failed over the
// measured rounds: execution errors, dropped frames and verifier
// rejections.
func (m *measured) failures() int {
	return m.failed + int(m.delta[cExecErrors]+m.delta[cDropped]+m.delta[cVerifyRejects])
}
