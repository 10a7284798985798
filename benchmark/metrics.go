package main

import (
	"encoding/json"
	"fmt"
)

// runSeconds is the run length BENCHMARK.json asks the driver for.
const runSeconds = 10

// e2eMetric is one end-to-end metric of BENCHMARK.json: its unit, the
// share by which it may worsen before that counts as a regression, and
// whether two runs on one seed must agree on it to the last bit.
type e2eMetric struct {
	name  string
	unit  string
	bound float64
	exact bool
}

// endToEnd is every end-to-end metric; all are lower-is-better. README.md
// defines each and says how its bound was chosen.
var endToEnd = []e2eMetric{
	{"host_ns_per_op", "ns", 0.25, false},
	{"host_floor_ns_per_op", "ns", 0.25, false},
	{"host_cpu_ns_per_op", "ns", 0.25, false},
	{"host_allocs_per_op", "allocs", 0.04, false},
	{"host_alloc_bytes_per_op", "B", 0.06, false},
	{"host_live_heap_mb", "MiB", 0.10, false},
	{"virt_us_per_op", "us", 0.10, true},
	{"virt_p99_us", "us", 0.12, true},
	{"wire_bytes_per_op", "B", 0.06, true},
	{"setup_s", "s", 0.25, false},
}

// layerMetric is one per-layer metric of BENCHMARK.json.
type layerMetric struct {
	name   string
	unit   string
	higher bool // higher is better
}

// perLayer is every metric of the traced run, by layer. A host-clock
// replay a workload has no input for, and a count of something it never
// does, read 0 on that workload.
var perLayer = []layerMetric{
	// sim
	{"sim.ns_per_event.deep", "ns", false},
	{"sim.ns_per_event.shallow", "ns", false},
	{"sim.ns_per_event.own", "ns", false},
	{"sim.events_per_op", "count", false},
	// fabric
	{"fabric.ns_per_msg", "ns", false},
	{"fabric.msgs_per_op", "count", false},
	{"fabric.cpu_busy_frac", "ratio", false},
	// ucx
	{"ucx.ifunc_ns_per_frame.drain_all", "ns", false},
	{"ucx.ifunc_ns_per_frame.drain_1", "ns", false},
	{"ucx.ifunc_ns_per_frame.drain_1.burst4096", "ns", false},
	{"ucx.ifunc_ns_per_frame.drain_8", "ns", false},
	{"ucx.ifunc_ns_per_frame.own", "ns", false},
	{"ucx.ifunc_ns_per_frame.single", "ns", false},
	{"ucx.am_ns_per_msg", "ns", false},
	{"ucx.get_ns_per_op", "ns", false},
	{"ucx.put_ns_per_op", "ns", false},
	{"ucx.frames_per_poll", "count", true},
	// ifunc
	{"ifunc.build_ns_per_frame.trunc", "ns", false},
	{"ifunc.build_ns_per_frame.full", "ns", false},
	{"ifunc.parse_ns_per_frame.trunc", "ns", false},
	{"ifunc.parse_ns_per_frame.full", "ns", false},
	{"ifunc.hash_ns_per_kib", "ns", false},
	{"ifunc.chunkhash_ns_per_kib", "ns", false},
	{"ifunc.store_intern_ns", "ns", false},
	{"ifunc.store_hit_frac", "ratio", true},
	{"ifunc.store_evictions_per_op", "count", false},
	{"ifunc.store_bytes", "B", false},
	// mcode
	{"mcode.lower_ns_per_instr", "ns", false},
	{"mcode.verify_ns_per_instr", "ns", false},
	{"mcode.prepare_ns_per_instr", "ns", false},
	{"mcode.run_ns_per_step", "ns", false},
	{"mcode.run_ns_per_exec.tsi", "ns", false},
	{"mcode.steps_per_op", "count", false},
	// toolchain side
	{"minilang.compile_ns_per_module", "ns", false},
	{"passes.optimize_ns_per_module", "ns", false},
	{"bitcode.encode_ns_per_kib", "ns", false},
	{"bitcode.decode_ns_per_kib", "ns", false},
	{"toolchain.build_ns_per_module", "ns", false},
	{"toolchain.archive_bytes", "B", false},
	{"jit.compile_ns_per_module", "ns", false},
	{"jit.cache_hit_frac", "ratio", true},
	{"elfx.decode_ns_per_module", "ns", false},
	{"linker.patch_ns_per_module", "ns", false},
	// core
	{"core.issue_ns_per_op", "ns", false},
	{"core.run_ns_per_op", "ns", false},
	{"core.register_ns_per_type", "ns", false},
	{"core.unattributed_frac", "ratio", false},
	{"core.gc_cpu_frac", "ratio", false},
	{"core.full_frame_frac", "ratio", false},
	{"core.hashref_frac", "ratio", true},
	{"core.frames_per_group", "count", true},
	{"core.jit_compiles_per_op", "count", false},
	{"core.binary_loads_per_op", "count", false},
	{"core.guest_sends_per_op", "count", false},
	{"core.region_elide_frac", "ratio", true},
	{"core.get_bytes_frac", "ratio", false},
	{"core.put_bytes_frac", "ratio", false},
	// place
	{"place.plan_ns_per_req", "ns", false},
	{"place.ship_frac", "ratio", false},
	{"place.pull_frac", "ratio", false},
	{"place.local_frac", "ratio", false},
	{"place.fallbacks_per_op", "count", false},
	{"place.regret_pct", "%", false},
	// obs and the virtual-clock phases
	{"virt.nic_out.tx_us_per_op", "us", false},
	{"virt.core.drain_us_per_op", "us", false},
	{"virt.core.execute_us_per_op", "us", false},
	{"obs.trace_overhead_pct", "%", false},
	{"obs.events_per_op", "count", false},
	// dapc
	{"dapc.hops_per_chase", "count", false},
	{"dapc.speedup_vs_get", "ratio", true},
	// the paper
	{"paper_err_pct", "%", false},
	// share of host_ns_per_op each layer's replay accounts for
	{"share.sim", "ratio", false},
	{"share.fabric", "ratio", false},
	{"share.ucx", "ratio", false},
	{"share.ifunc", "ratio", false},
	{"share.mcode.run", "ratio", false},
	{"share.codegen", "ratio", false},
	{"share.place", "ratio", false},
}

// layerMetrics starts a traced run's metric set: every per-layer metric
// at 0 with its unit.
func layerMetrics() map[string]metric {
	ms := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		ms[m.name] = metric{0, m.unit}
	}
	return ms
}

// describe renders BENCHMARK.json from the tables above, so that the
// file at the root of the repository and the program cannot disagree.
func describe() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			return nil, fmt.Errorf("why of %s is %d characters long", w.name, len(w.why))
		}
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, "lower", m.bound})
	}
	for _, m := range perLayer {
		better := "lower"
		if m.higher {
			better = "higher"
		}
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
