package main

import (
	"encoding/binary"
	"fmt"

	"threechains/internal/core"
	"threechains/internal/ir"
	"threechains/internal/sim"
	"threechains/internal/testbed"
	"threechains/internal/toolchain"
	"threechains/internal/ucx"
)

// The pointer chase of the paper's Section IV-C: a Xeon client and
// BlueField-2 servers on the Thor-Mixed fabric, one chase in flight.
const (
	dapcServers = 8
	dapcShard   = 4096 // table entries per server
	dapcDepth   = 4096 // lookups per chase
)

// dapcTable is a single permutation cycle over all entries (Sattolo),
// sharded server-number-first, so a chase of any depth never stops early.
func dapcTable(rng *rng, n int) []uint64 {
	idx := make([]uint64, n)
	for i := range idx {
		idx[i] = uint64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	perm := make([]uint64, n)
	for i := 0; i < n; i++ {
		perm[idx[i]] = idx[(i+1)%n]
	}
	return perm
}

// dapcWorld is the X-RDMA chase (the measured system) or, with get set,
// the client-driven GET baseline over the same table.
type dapcWorld struct {
	cl      *core.Cluster
	client  *core.Runtime
	servers []*core.Runtime
	h       *core.Handle
	perm    []uint64
	rng     *rng

	get    bool
	bases  []uint64
	keys   []ucx.RKey
	getEPs []*ucx.Endpoint

	// Outputs of the rounds run so far.
	starts  []uint64
	values  []uint64
	lat     []float64 // per-chase virtual latency, microseconds
	checked int
	runErr  error
}

func buildDAPC(e *env) (world, error) { return newDAPCWorld(e, false) }

func newDAPCWorld(e *env, get bool) (*dapcWorld, error) {
	done := e.phase("setup.build")
	p := testbed.ThorMixed()
	specs := []core.NodeSpec{{Name: "client", March: testbed.ThorXeon().March(), MemBytes: nodeMem, Engine: e.engine}}
	for i := 0; i < dapcServers; i++ {
		specs = append(specs, core.NodeSpec{
			Name: fmt.Sprintf("server%d", i), March: p.March(), MemBytes: nodeMem, Engine: e.engine,
		})
	}
	cl := core.NewCluster(p.Net, specs)
	e.attachTo(cl)
	w := &dapcWorld{cl: cl, client: cl.Runtime(0), servers: cl.Runtimes[1:], get: get}
	// The table and the chase starts come from separate streams, so the
	// baseline world sees the same starts without building the same way.
	w.perm = dapcTable(newRNG(e.seed), dapcServers*dapcShard)
	w.rng = newRNG(e.seed ^ 0x5eed)
	for _, rt := range cl.Runtimes {
		rt.Worker.AMDispatch = p.AMDispatch
		rt.Worker.IfuncPoll = p.IfuncPoll
		rt.Worker.MaxDrain = 1
	}
	for s, rt := range w.servers {
		base := rt.Node.Alloc(dapcShard * 8)
		mem := rt.Node.Mem()
		for i := 0; i < dapcShard; i++ {
			binary.LittleEndian.PutUint64(mem[base+uint64(i)*8:], w.perm[s*dapcShard+i])
		}
		ctx := rt.Node.Alloc(core.SrvCtxBytes)
		binary.LittleEndian.PutUint64(mem[ctx+core.SrvCtxTableBase:], base)
		binary.LittleEndian.PutUint64(mem[ctx+core.SrvCtxShardSize:], dapcShard)
		binary.LittleEndian.PutUint64(mem[ctx+core.SrvCtxNumServers:], dapcServers)
		binary.LittleEndian.PutUint64(mem[ctx+core.SrvCtxFirstServer:], 1)
		rt.TargetPtr = ctx
		w.bases = append(w.bases, base)
	}
	w.client.TargetPtr = w.client.Node.Alloc(8)
	if get {
		for s, rt := range w.servers {
			w.keys = append(w.keys, rt.Worker.RegisterMem(w.bases[s], dapcShard*8))
			w.getEPs = append(w.getEPs, w.client.Worker.Connect(rt.Worker))
		}
		done()
		return w, nil
	}
	_, raw, err := toolchain.BuildArchive(core.BuildChaser(), toolchain.Options{Opt: 2, Debug: true, Triples: p.Triples})
	done()
	if err != nil {
		return nil, err
	}

	done = e.phase("setup.register")
	w.h, err = w.client.RegisterArchive("dapc", raw)
	if err == nil {
		err = w.client.RegisterLocal(w.h)
	}
	done()
	if err != nil {
		return nil, err
	}

	// Touch every server once (its JIT runs here), then one walk long
	// enough to visit most server pairs; the warm-up rounds finish the
	// rest before anything is measured.
	done = e.phase("setup.warm")
	defer done()
	cl.Eng.Go("warm", func(pr *sim.Proc) {
		for s := 0; s < dapcServers && w.runErr == nil; s++ {
			w.chase(pr, uint64(s*dapcShard), 1, nil)
		}
		if w.runErr == nil {
			w.chase(pr, 0, 4*dapcServers*dapcServers, nil)
		}
	})
	cl.Run()
	return w, w.runErr
}

// chase runs one chase from the client process and returns the value
// delivered to the client. A failure is left in w.runErr.
func (w *dapcWorld) chase(pr *sim.Proc, start, depth uint64, rec *recorder) uint64 {
	if w.get {
		addr := start
		for d := uint64(0); d < depth; d++ {
			owner, local := addr/dapcShard, addr%dapcShard
			op := w.getEPs[owner].Get(w.bases[owner]+local*8, 8, w.keys[owner])
			if st := ucx.Status(pr.Await(op.Done)); st != ucx.OK {
				w.runErr = fmt.Errorf("GET failed: %v", st)
				return 0
			}
			addr = binary.LittleEndian.Uint64(op.Data)
		}
		return addr
	}
	var payload [core.ChaseBytes]byte
	binary.LittleEndian.PutUint64(payload[core.ChaseAddr:], start)
	binary.LittleEndian.PutUint64(payload[core.ChaseDepth:], depth)
	binary.LittleEndian.PutUint64(payload[core.ChaseDest:], 0)
	done := w.client.SetCompletion()
	t0 := now()
	_, err := w.client.Send(1+int(start/dapcShard), w.h, "chase", payload[:])
	if rec != nil {
		rec.issue += since(t0)
	}
	if err != nil {
		w.runErr = err
		return 0
	}
	return pr.Await(done)
}

func (w *dapcWorld) ops() int { return size.dapcChases }

func (w *dapcWorld) begin() error { return nil }

func (w *dapcWorld) run(rec *recorder) error {
	for i := 0; i < size.dapcChases; i++ {
		w.starts = append(w.starts, uint64(w.rng.Intn(len(w.perm))))
	}
	w.cl.Eng.Go("client", func(pr *sim.Proc) {
		for _, s := range w.starts[len(w.values):] {
			t0 := pr.Now()
			v := w.chase(pr, s, dapcDepth, rec)
			if w.runErr != nil {
				return
			}
			w.values = append(w.values, v)
			w.lat = append(w.lat, (pr.Now() - t0).Micros())
			rec.slice(0, 1)
		}
	})
	w.cl.Run()
	if w.runErr == nil && len(w.values) != len(w.starts) {
		w.runErr = fmt.Errorf("client stalled after %d of %d chases", len(w.values), len(w.starts))
	}
	return w.runErr
}

// check walks the generated permutation on the host for every chase not
// yet checked and compares the value the client received.
func (w *dapcWorld) check() (int, error) {
	failed := 0
	for ; w.checked < len(w.values); w.checked++ {
		addr := w.starts[w.checked]
		for d := 0; d < dapcDepth; d++ {
			addr = w.perm[addr]
		}
		if addr != w.values[w.checked] {
			failed++
		}
	}
	for _, rt := range w.cl.Runtimes {
		if rt.LastExecErr != nil {
			return failed, fmt.Errorf("on %s: %w", rt.Node.Name, rt.LastExecErr)
		}
	}
	return failed, nil
}

// latencyPass runs one more round; the client's own clock times every
// chase of every round, so the distribution covers all of them.
func (w *dapcWorld) latencyPass() ([]float64, error) {
	err := w.run(&recorder{})
	return w.lat, err
}

func (w *dapcWorld) stats() counters {
	c := clusterCounters(w.cl)
	if w.h != nil {
		for _, rt := range w.cl.Runtimes {
			if reg, ok := rt.Reg.Get(w.h.Hash); ok {
				c[cSteps] += reg.TotalSteps
			}
		}
	}
	return c
}

func (w *dapcWorld) resultHash() uint64 {
	h := newHash()
	for _, v := range w.values {
		h.u64(v)
	}
	return h.sum()
}

func (w *dapcWorld) inputs() (*layerInputs, error) {
	return &layerInputs{
		payload: core.ChaseBytes, modules: []*ir.Module{core.BuildChaser()}, kernels: chaseKernels(),
		oneFramePerPoll: true, burst: 1,
	}, nil
}
