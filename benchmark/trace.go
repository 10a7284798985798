package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"threechains/internal/bench"
	"threechains/internal/core"
	"threechains/internal/obs"
	"threechains/internal/place"
	"threechains/internal/testbed"
)

// tracedRounds is how many rounds the traced run measures, with and
// without the sinks attached.
const tracedRounds = 3

// maxChromeEvents bounds the virtual-clock trace file: the first traced
// round of tsi-stream alone records over a million events.
const maxChromeEvents = 100000

// traceSink attaches a trace and a metrics registry to every cluster a
// world creates and folds the recorded spans after each round.
type traceSink struct {
	clusters []*tracedCluster
	events   uint64
	// Virtual-time span sums, picoseconds.
	tx, drain, execute uint64
	chrome             *obs.Trace // first cluster, first measured round
}

type tracedCluster struct {
	cl  *core.Cluster
	tr  *obs.Trace
	reg *obs.Registry
}

func (s *traceSink) attach(cl *core.Cluster) {
	tc := &tracedCluster{cl: cl, tr: obs.NewTrace(len(cl.Runtimes)), reg: obs.NewRegistry()}
	cl.AttachTrace(tc.tr)
	cl.AttachMetrics(tc.reg)
	s.clusters = append(s.clusters, tc)
}

// fold adds every event recorded since the last fold to the sums and
// empties the buffers, so a round's events never outlive it. With keep
// set, the first cluster's events are first copied for the Chrome
// export. A cluster that recorded nothing has been retired by its world
// and is forgotten.
func (s *traceSink) fold(keep bool) {
	live := s.clusters[:0]
	for _, tc := range s.clusters {
		if tc.tr.NumEvents() == 0 {
			continue
		}
		if keep && s.chrome == nil {
			s.chrome = copyTrace(tc)
		}
		for i := 0; i < tc.tr.NumNodes(); i++ {
			nt := tc.tr.Node(i)
			for j := range nt.Events {
				ev := &nt.Events[j]
				if ev.Kind != obs.KindSpan {
					continue
				}
				switch ev.Name {
				case "tx":
					s.tx += uint64(ev.Dur)
				case "drain":
					s.drain += uint64(ev.Dur)
				case "execute":
					s.execute += uint64(ev.Dur)
				}
			}
			s.events += uint64(len(nt.Events))
			nt.Events = nt.Events[:0]
		}
		tc.tr.Sched.Events = tc.tr.Sched.Events[:0]
		live = append(live, tc)
	}
	for i := len(live); i < len(s.clusters); i++ {
		s.clusters[i] = nil
	}
	s.clusters = live
}

// copyTrace copies a cluster's events, at most maxChromeEvents of them
// shared equally between its nodes, into a trace of their own.
func copyTrace(tc *tracedCluster) *obs.Trace {
	n := tc.tr.NumNodes()
	t := obs.NewTrace(n)
	for i := 0; i < n; i++ {
		evs := tc.tr.Node(i).Events
		if limit := maxChromeEvents / n; len(evs) > limit {
			evs = evs[:limit]
		}
		t.Node(i).Events = append([]obs.Event(nil), evs...)
		t.SetNodeName(i, tc.cl.Runtimes[i].Node.Name)
	}
	return t
}

// tracedRun is the per-layer measurement: the same rounds with and
// without the sinks attached, which must agree on every output and on
// virtual time; host spans around the harness's own calls; the layer
// replays; and the shares of host time the replays account for.
func tracedRun(w *workload, seed int64, outDir string, out io.Writer) (*result, error) {
	// Reference rounds with nothing attached.
	ref, err := w.build(&env{seed: seed})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	failed, err := warmUp(ref)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	mRef, err := runRounds(ref, tracedRounds, nil, nil)
	if err != nil {
		return nil, err
	}
	failed += mRef.failures()
	in, err := ref.inputs()
	if err != nil {
		return nil, err
	}
	refHash := ref.resultHash()
	ref = nil

	// The same rounds with a trace and a registry on every cluster.
	spans := newHostTrace()
	sink := &traceSink{}
	t0 := now()
	tw, err := w.build(&env{seed: seed, attach: sink.attach, spans: spans})
	spans.add("setup", "", -1, t0, now())
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	if _, err := warmUp(tw); err != nil {
		return nil, fmt.Errorf("traced warm-up: %w", err)
	}
	sink.fold(false)
	sink.events, sink.tx, sink.drain, sink.execute = 0, 0, 0, 0
	mTr, err := runRounds(tw, tracedRounds, spans, func(r int) { sink.fold(r == 0) })
	if err != nil {
		return nil, err
	}
	failed += mTr.failures()
	same := tw.resultHash() == refHash && mTr.delta[cVirtPS] == mRef.delta[cVirtPS]
	if !same {
		fmt.Fprintf(out, "MISMATCH: traced hash %016x virtual %d ps, untraced hash %016x virtual %d ps\n",
			tw.resultHash(), mTr.delta[cVirtPS], refHash, mRef.delta[cVirtPS])
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	hostFile := filepath.Join(outDir, w.name+".host.trace.json")
	if err := spans.write(hostFile); err != nil {
		return nil, err
	}
	virtFile := filepath.Join(outDir, w.name+".virt.trace.json")
	if err := writeChrome(sink.chrome, virtFile); err != nil {
		return nil, err
	}

	lt, ev, err := runLayerReplays(in)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}

	ops := float64(tracedRounds * mRef.ops)
	d := &mRef.delta
	per := func(i int) float64 { return float64(d[i]) / ops }
	hns := mRef.hostNS()
	ms := layerMetrics()
	var unknown []string
	set := func(name string, v float64) {
		m, ok := ms[name]
		if !ok {
			unknown = append(unknown, name)
		}
		ms[name] = metric{v, m.Unit}
	}
	for name, v := range lt { //repolint:allow maprange — copied into a map printed sorted
		if name != instrsPerModule {
			set(name, v)
		}
	}

	frames := float64(d[cFullFrames] + d[cTruncFrames] + d[cHashRefFrames])
	offloads := float64(d[cShip] + d[cPull] + d[cLocal])
	set("sim.events_per_op", per(cEvents))
	set("fabric.msgs_per_op", per(cMsgsSent))
	set("fabric.cpu_busy_frac", ratio(float64(d[cCPUBusyPS]), float64(d[cNodeVirtPS])))
	set("ucx.frames_per_poll", ratio(float64(d[cFrames]), float64(d[cPolls])))
	set("ifunc.store_hit_frac", ratio(float64(d[cStoreHits]), float64(d[cStoreHits]+d[cStorePuts])))
	set("ifunc.store_evictions_per_op", per(cStoreEvictions))
	set("ifunc.store_bytes", float64(d[cStoreBytes]))
	set("mcode.steps_per_op", per(cSteps))
	set("jit.cache_hit_frac", ratio(float64(d[cJITCacheHits]), float64(d[cJITCacheHits]+d[cJITCompiles])))
	// Medians over the same rounds as hns; Cluster.Run is the rest of it.
	issueNS, regNS := median(mRef.issueNS), median(mRef.registerNS)
	set("core.issue_ns_per_op", issueNS)
	set("core.run_ns_per_op", hns-issueNS-regNS)
	set("core.register_ns_per_type", regNS)
	set("core.gc_cpu_frac", mRef.gcFrac)
	set("core.full_frame_frac", ratio(float64(d[cFullFrames]), frames))
	set("core.hashref_frac", ratio(float64(d[cHashRefFrames]), frames))
	set("core.frames_per_group", ratio(float64(d[cFrames]), float64(d[cGroupRuns])))
	set("core.jit_compiles_per_op", per(cJITCompiles))
	set("core.binary_loads_per_op", per(cBinaryLoads))
	set("core.guest_sends_per_op", per(cGuestSends))
	set("core.region_elide_frac", ratio(float64(d[cRegionElides]), float64(d[cPull])))
	set("core.get_bytes_frac", ratio(float64(d[cPullGet]), float64(d[cPullGetFull])))
	set("core.put_bytes_frac", ratio(float64(d[cPutBytes]), float64(d[cPutFull])))
	set("place.ship_frac", ratio(float64(d[cShip]), offloads))
	set("place.pull_frac", ratio(float64(d[cPull]), offloads))
	set("place.local_frac", ratio(float64(d[cLocal]), offloads))
	set("place.fallbacks_per_op", per(cFallbacks))
	set("virt.nic_out.tx_us_per_op", micros(sink.tx)/ops)
	set("virt.core.drain_us_per_op", micros(sink.drain)/ops)
	set("virt.core.execute_us_per_op", micros(sink.execute)/ops)
	set("obs.trace_overhead_pct", 100*(mTr.hostNS()/hns-1))
	set("obs.events_per_op", float64(sink.events)/ops)

	switch w.name {
	case "dapc-chase":
		set("dapc.hops_per_chase", per(cGuestSends))
		sp, err := dapcSpeedup(seed, tw.(*dapcWorld))
		if err != nil {
			return nil, err
		}
		set("dapc.speedup_vs_get", sp)
	case "offload-mix":
		regret, err := offloadRegret(seed)
		if err != nil {
			return nil, err
		}
		set("place.regret_pct", regret)
	case "tsi-paper":
		pe, err := paperError()
		if err != nil {
			return nil, err
		}
		set("paper_err_pct", pe.maxPct)
	}

	shares := layerShares(in, lt, ev, d, ops, hns)
	attributed := 0.0
	for _, sh := range shares {
		set("share."+sh.layer, sh.frac)
		attributed += sh.frac
	}
	if size.maxAttributed > 0 && attributed > size.maxAttributed {
		return nil, fmt.Errorf("the layer replays account for %.1f %% of host_ns_per_op: the attribution pays for some work twice", 100*attributed)
	}
	set("core.unattributed_frac", 1-attributed)

	if len(unknown) > 0 {
		return nil, fmt.Errorf("metrics missing from the per-layer table: %v", unknown)
	}
	res := &result{Correct: failed == 0 && same, Attempted: 2 * (warmRounds + tracedRounds) * mRef.ops, Failed: failed, Metrics: ms}

	fmt.Fprintf(out, "traced run of %s seed %d: %d rounds of %d ops untraced and traced\n", w.name, seed, tracedRounds, mRef.ops)
	fmt.Fprintf(out, "  result hash %016x and virtual makespan %.3f us equal with and without the sinks: %v\n",
		refHash, micros(mRef.delta[cVirtPS]), same)
	fmt.Fprintf(out, "  host spans: %s (setup.build %v, setup.register %v, setup.warm %v)\n", hostFile,
		spans.total("setup.build"), spans.total("setup.register"), spans.total("setup.warm"))
	fmt.Fprintf(out, "  virtual trace: %s\n", virtFile)
	fmt.Fprintf(out, "  host_ns_per_op %.1f ns untraced; share of it each layer's replay accounts for:\n", hns)
	for _, sh := range shares {
		fmt.Fprintf(out, "    %-10s %6.1f %%   %s\n", sh.layer, 100*sh.frac, sh.how)
	}
	glue := "drain, group, execute and stream glue no replay reaches"
	if attributed > 1 {
		glue = "unresolved: the replays ran slower than the rounds, by no more than the host's phases move a timing"
	}
	fmt.Fprintf(out, "    %-10s %6.1f %%   %s\n", "core glue", 100*(1-attributed), glue)
	printMetrics(out, ms)
	return res, nil
}

// writeChrome stores the kept virtual-clock trace for Perfetto.
func writeChrome(t *obs.Trace, path string) error {
	if t == nil {
		t = obs.NewTrace(0)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// instrsPerModule keys the mean lowered size of the workload's modules
// among the replay results; it prices per-instruction replays and is not
// itself a metric.
const instrsPerModule = "instrs per module"

// layerShare is one row of the host-time attribution.
type layerShare struct {
	layer string
	frac  float64
	how   string
}

// layerShares prices the counts of the measured rounds with the replay
// times: the share of host_ns_per_op each layer would take if its work
// cost inside the program what it costs in isolation. sim is inside
// fabric and fabric inside ucx. Every engine event of the rounds is
// priced once, in the sim row, at the workload's own queue depth; each
// outer replay has the inner layers taken out at what they cost inside
// that replay, so that no event is paid for twice.
func layerShares(in *layerInputs, lt layerTimes, ev simInside, d *counters, ops, hns float64) []layerShare {
	per := func(i int) float64 { return float64(d[i]) / ops }
	pos := func(v float64) float64 { return math.Max(v, 0) }
	fabricSelf := pos(lt["fabric.ns_per_msg"] - ev["fabric.ns_per_msg"])
	ucxSelf := func(name string) float64 { return pos(lt[name] - fabricSelf - ev[name]) }
	// Small frames queue up to the workload's burst length; a full frame
	// takes longer on the wire than a poll takes, so it is priced alone.
	full, small := per(cFullFrames), per(cTruncFrames)+per(cHashRefFrames)
	other := pos(per(cMsgsSent) - full - small) // AM, GET and PUT messages
	ucxNS := small*ucxSelf("ucx.ifunc_ns_per_frame.own") + full*ucxSelf("ucx.ifunc_ns_per_frame.single") +
		other*ucxSelf("ucx.am_ns_per_msg")

	// Code is hashed and interned once per registration, on either
	// side; a pulled region is hashed whole and by chunk.
	codeKiB := lt["toolchain.archive_bytes"] / 1024
	regs := in.bitcodeRegs + 2*in.binaryRegs + per(cJITCompiles) + per(cBinaryLoads)
	ifuncNS := full*(lt["ifunc.build_ns_per_frame.full"]+lt["ifunc.parse_ns_per_frame.full"]) +
		small*(lt["ifunc.build_ns_per_frame.trunc"]+lt["ifunc.parse_ns_per_frame.trunc"]) +
		regs*(codeKiB*lt["ifunc.hash_ns_per_kib"]+lt["ifunc.store_intern_ns"]) +
		per(cPullGetFull)/1024*(lt["ifunc.hash_ns_per_kib"]+lt["ifunc.chunkhash_ns_per_kib"])

	instrs := lt[instrsPerModule]
	codegen := in.bitcodeRegs*lt["toolchain.build_ns_per_module"] +
		(in.bitcodeRegs+in.binaryRegs)*lt["minilang.compile_ns_per_module"] +
		in.binaryRegs*2*instrs*lt["mcode.lower_ns_per_instr"] +
		per(cJITCompiles)*(lt["jit.compile_ns_per_module"]+codeKiB*lt["bitcode.decode_ns_per_kib"]) +
		per(cBinaryLoads)*(lt["elfx.decode_ns_per_module"]+lt["linker.patch_ns_per_module"]+
			instrs*(lt["mcode.verify_ns_per_instr"]+lt["mcode.prepare_ns_per_instr"]))

	offloads := per(cShip) + per(cPull) + per(cLocal)
	rows := []layerShare{
		{"sim", per(cEvents) * lt["sim.ns_per_event.own"], "events x ns per event at the workload's queue depth"},
		{"fabric", per(cMsgsSent) * fabricSelf, "messages x (fabric replay - its engine events)"},
		{"ucx", ucxNS, "frames x (ifunc replay - fabric - its engine events), other messages priced as AM"},
		{"ifunc", ifuncNS, "frames x (build + parse), registrations x (hash + intern), pulled KiB x hashing"},
		{"mcode.run", per(cSteps) * lt["mcode.run_ns_per_step"], "guest steps x ns per step"},
		{"codegen", codegen, "registrations x toolchain, compiles x JIT, loads x (decode + verify + patch + prepare)"},
		{"place", offloads * lt["place.plan_ns_per_req"], "offloads x (Plan + Commit)"},
	}
	for i := range rows {
		rows[i].frac = ratio(rows[i].frac, hns)
	}
	return rows
}

// dapcSpeedup runs the client-driven GET baseline over the same table
// and the start addresses of the first traced round, and returns how
// many times longer a chase takes it in virtual time.
func dapcSpeedup(seed int64, dapc *dapcWorld) (float64, error) {
	get, err := newDAPCWorld(&env{seed: seed}, true)
	if err != nil {
		return 0, err
	}
	for i := 0; i < warmRounds*size.dapcChases; i++ {
		get.rng.Intn(len(get.perm))
	}
	if m, err := runRounds(get, 1, nil, nil); err != nil || m.failures() != 0 {
		return 0, fmt.Errorf("GET baseline returned wrong values: %v", err)
	}
	first := dapc.lat[warmRounds*size.dapcChases : (warmRounds+1)*size.dapcChases]
	for i, s := range get.starts {
		if dapc.starts[warmRounds*size.dapcChases+i] != s {
			return 0, fmt.Errorf("GET baseline chased other start addresses")
		}
	}
	return ratio(sum(get.lat), sum(first)), nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// offloadRegret replays round 0 on fresh worlds under the planner and
// under both static policies and returns by how many percent the
// planner's virtual makespan exceeds the better static one.
func offloadRegret(seed int64) (float64, error) {
	makespan := func(pol place.Policy) (float64, error) {
		w, err := newOffloadWorld(&env{seed: seed}, pol)
		if err != nil {
			return 0, err
		}
		if m, err := runRounds(w, 1, nil, nil); err != nil || m.failures() != 0 {
			return 0, fmt.Errorf("policy %v returned wrong values: %v", pol, err)
		}
		return w.cl.Eng.Now().Micros(), nil
	}
	planner, err := makespan(place.PolicyCostModelQueue)
	if err != nil {
		return 0, err
	}
	ship, err := makespan(place.PolicyShipCode)
	if err != nil {
		return 0, err
	}
	pull, err := makespan(place.PolicyPullData)
	if err != nil {
		return 0, err
	}
	return 100 * (planner/math.Min(ship, pull) - 1), nil
}

// paperTSI holds the values of the paper's Tables I-VI for one
// platform: latency in us and rate in messages per second for Active
// Message, cached bitcode and uncached bitcode, and the JIT cost in ms.
type paperTSI struct {
	lat, rate [3]float64
	jit       float64
}

var paperModes = [3]bench.TSIMode{bench.TSIActiveMessage, bench.TSIBitcodeCached, bench.TSIBitcodeUncached}

var paperValues = map[string]paperTSI{
	"Ookami":    {lat: [3]float64{2.58, 2.67, 5.12}, rate: [3]float64{1.32e6, 1.669e6, 405.3e3}, jit: 6.59},
	"Thor-BF2":  {lat: [3]float64{1.88, 1.86, 3.49}, rate: [3]float64{974e3, 1.311e6, 417.3e3}, jit: 4.50},
	"Thor-Xeon": {lat: [3]float64{1.56, 1.53, 3.59}, rate: [3]float64{6.754e6, 7.302e6, 2.037e6}, jit: 0.83},
}

// paperErr is the reproduction error against the paper.
type paperErr struct {
	maxPct float64 // over all 21 cells
	// latRatePct and jitPct are the maxima the repository's own test
	// (TestTSIMatchesPaper) bounds at 15 % and 10 %.
	latRatePct, jitPct float64
	worst              string
}

// paperError runs bench.TSITable on the three paper profiles and
// compares the 18 latency and rate cells and the 3 JIT costs.
func paperError() (paperErr, error) {
	var pe paperErr
	note := func(cell string, got, want float64, jit bool) {
		e := 100 * math.Abs(got-want) / want
		if jit {
			pe.jitPct = math.Max(pe.jitPct, e)
		} else {
			pe.latRatePct = math.Max(pe.latRatePct, e)
		}
		if e > pe.maxPct {
			pe.maxPct, pe.worst = e, cell
		}
	}
	for _, p := range testbed.All() {
		rows, err := bench.TSITable(p)
		if err != nil {
			return pe, err
		}
		ref, ok := paperValues[p.Name]
		if !ok {
			return pe, fmt.Errorf("no paper values for %s", p.Name)
		}
		for _, r := range rows {
			for i, mode := range paperModes {
				if r.Mode != mode {
					continue
				}
				note(p.Name+" "+mode.String()+" latency", r.LatencyUS, ref.lat[i], false)
				note(p.Name+" "+mode.String()+" rate", r.RateMsgSec, ref.rate[i], false)
				if mode == bench.TSIBitcodeUncached {
					note(p.Name+" JIT", r.JITms, ref.jit, true)
				}
			}
		}
	}
	return pe, nil
}
