package place

// The calibrated cost model: route-time estimates assembled from the same
// parameters the simulation charges — the fabric's LogGP wire model
// (fabric.NetParams), the per-µarch operation cost tables (isa.MicroArch,
// priced per dynamic step the way mcode.Cycles prices executed counts),
// the UCP protocol framing sizes (ucx header constants), and the JIT
// session's registration costs. The estimates are not required to be
// exact; they only need to rank routes correctly, and because every
// input is virtual-time state they rank identically across runs, hosts
// and execution engines. ShipCost/PullCost price an idle fabric (the
// sequential, latency-oriented regime); shipQueued/pullQueued add
// queueing terms — per-resource busy-until horizons maintained by the
// planner from its own committed decisions — for pipelined offload
// streams, and reduce exactly to the zero-load estimates when every
// horizon has expired.

import (
	"threechains/internal/fabric"
	"threechains/internal/isa"
	"threechains/internal/jit"
	"threechains/internal/sim"
	"threechains/internal/ucx"
)

// NodeTraits is the per-node side of the model: how fast this node
// executes guest steps and how expensive its polling pickup is.
type NodeTraits struct {
	March *isa.MicroArch
	// ExecMult mirrors Runtime.ExecCostMultiplier (0 means 1): the knob
	// heterogeneous scenarios use for asymmetric node speeds.
	ExecMult float64
	// IfuncPoll is the node's calibrated poll pickup cost
	// (testbed.Profile.IfuncPoll).
	IfuncPoll sim.Time
}

// CostModel prices the routes of one (local node, remote node) pair.
type CostModel struct {
	Net    fabric.NetParams
	Local  NodeTraits
	Remote NodeTraits
}

// stepSeconds is the modeled mean wall time of one dynamic guest step on
// a µarch: a representative operation mix priced from the µarch's cost
// table, with the same superscalar ALU discount mcode.Cycles applies.
// Message kernels in this corpus are load/store-heavy (the TSI and DAPC
// shapes), which the mix reflects.
func stepSeconds(m *isa.MicroArch) float64 {
	alu := m.Cost[isa.OpALU]
	if m.IssueWidth > 1 {
		alu /= float64(m.IssueWidth)
	}
	cycles := 0.45*alu + 0.25*m.Cost[isa.OpLoad] + 0.15*m.Cost[isa.OpStore] + 0.15*m.Cost[isa.OpBranch]
	return m.CyclesToSeconds(cycles)
}

// ExecTime models executing steps dynamic instructions on a node.
func (m CostModel) ExecTime(n NodeTraits, steps float64) sim.Time {
	mult := n.ExecMult
	if mult <= 0 {
		mult = 1
	}
	return sim.FromSeconds(steps * stepSeconds(n.March) * mult)
}

// regTime is the registration charge a route pays on its executing side.
func regTime(registered bool, regCost sim.Time) sim.Time {
	if registered {
		return jit.LookupCost
	}
	return regCost
}

// shipRegTime is the ship route's registration charge. A cold remote
// registration is an investment exactly like the pull route's local
// compile: once installed (and pinned in the destination's content
// store) it serves every later offload of the type to that destination
// at LookupCost. The planner feeds the committed demand it has already
// seen for the (type, dst) pair through Request.ShipFanout, and the
// model amortizes the one-time charge over it — so a pair with real
// fan-out stops mispricing ship by billing the whole JIT to the first
// message.
func shipRegTime(req Request) sim.Time {
	if req.RemoteRegistered {
		return jit.LookupCost
	}
	fan := req.ShipFanout
	if fan < 1 {
		fan = 1
	}
	return req.RemoteRegCost / sim.Time(fan)
}

// putBytesFor is the modeled write-back PUT payload: the measured delta
// (Request.PutBytes, from the registration's dirty-segment EWMA) when
// known and smaller than the region, the whole region otherwise.
func putBytesFor(req Request) int {
	if req.PutBytes > 0 && req.PutBytes < req.DataBytes {
		return req.PutBytes
	}
	return req.DataBytes
}

// ShipCost models the ship-code route: post the frame (truncated or full,
// req.FrameBytes carries the caching protocol's answer), cross the wire,
// pay the receiver's NIC write + poll pickup, register if the code is not
// interned at the destination yet, and execute on the destination core.
func (m CostModel) ShipCost(req Request) sim.Time {
	t := m.Net.SendOverhead + m.Net.WireTime(req.FrameBytes) + m.Net.NICOverhead
	t += m.Remote.IfuncPoll + m.Net.RecvOverhead
	t += shipRegTime(req)
	t += m.ExecTime(m.Remote, req.MeanSteps)
	return t
}

// txTime is the sender-NIC occupancy of an n-byte message: posting
// overhead plus the LogGP gap (1/bandwidth), the same occupancy the
// fabric charges the sending NIC. Distinct from WireTime, which is the
// one-way delivery latency.
func (m CostModel) txTime(n int) sim.Time {
	return m.Net.SendOverhead + sim.Time(n)*m.Net.GapPerByte
}

// rxGap is the receiving-NIC occupancy of an n-byte inbound message (the
// per-byte gap only; the fixed NIC processing is part of the delivery
// latency).
func (m CostModel) rxGap(n int) sim.Time {
	return sim.Time(n) * m.Net.GapPerByte
}

// shipQueued prices the ship-code route against the busy-until horizons
// in q: the frame waits for the local NIC's outbound queue, and the
// destination execution waits for that core's earlier offloads. The
// returned claims are the absolute busy-until times committing this
// route would establish. With all horizons expired (at or before
// req.Now) the estimate equals ShipCost exactly.
func (m CostModel) shipQueued(req Request, q *queueState) (sim.Time, claims) {
	var c claims
	sendStart := max(req.Now, q.nicOut)
	c.nicOut = sendStart + m.txTime(req.FrameBytes)
	arrive := sendStart + m.Net.SendOverhead + m.Net.WireTime(req.FrameBytes) + m.Net.NICOverhead
	svc := m.Remote.IfuncPoll + m.Net.RecvOverhead +
		shipRegTime(req) +
		m.ExecTime(m.Remote, req.MeanSteps)
	execStart := max(arrive, q.remote(req.Dst))
	c.remoteCore = execStart + svc
	return c.remoteCore - req.Now, c
}

// pullQueued prices the pull-data route against the busy-until horizons
// in q: the GET descriptor waits for the outbound NIC, the data response
// waits for the inbound NIC (pipelined pulls serialize their multi-KiB
// responses there), local execution waits for the local core, and the
// put-back waits for the outbound NIC again. With all horizons expired
// the estimate equals PullCost exactly.
func (m CostModel) pullQueued(req Request, q *queueState) (sim.Time, claims) {
	var c claims
	reqStart := max(req.Now, q.nicOut)
	c.nicOut = reqStart + m.txTime(ucx.GetReqBytes)
	respAtNIC := reqStart + m.Net.SendOverhead + m.Net.WireTime(ucx.GetReqBytes) + m.Net.NICOverhead +
		m.Net.SendOverhead + m.Net.WireTime(ucx.GetRespBytes+req.DataBytes)
	inStart := max(respAtNIC, q.nicIn)
	c.nicIn = inStart + m.rxGap(ucx.GetRespBytes+req.DataBytes)
	dataReady := inStart + m.Net.NICOverhead + m.Net.RecvOverhead/2
	fan := req.LocalRegFanout
	if fan < 1 {
		fan = 1
	}
	execStart := max(dataReady, q.localCore)
	c.localCore = execStart + regTime(req.LocalRegistered, req.LocalRegCost/sim.Time(fan)) +
		m.ExecTime(m.Local, req.MeanSteps)
	end := c.localCore
	if req.WriteBack {
		putStart := max(end, q.nicOut, c.nicOut)
		end = putStart + m.Net.SendOverhead + m.Net.WireTime(ucx.PutHeaderBytes+putBytesFor(req)) + m.Net.NICOverhead
		// The put-back's NIC occupancy is deliberately NOT claimed: it
		// lies beyond the local execution, and a scalar busy-until
		// horizon cannot say "free now, busy later" — claiming it would
		// block near-now frames on a NIC that is actually idle. Its
		// occupancy (gap·bytes) is negligible next to the execution and
		// wire terms it trails.
	}
	return end - req.Now, c
}

// localQueued claims the local core for a run-local decision (the
// degenerate self-offload) so pipelined pulls behind it see the wait.
func (m CostModel) localQueued(req Request, q *queueState) claims {
	execStart := max(req.Now, q.localCore)
	return claims{
		localCore: execStart + regTime(req.LocalRegistered, req.LocalRegCost) +
			m.ExecTime(m.Local, req.MeanSteps),
	}
}

// PullCost models the pull-data route: a one-sided GET round trip for the
// operand region (request descriptor out, NIC read, response framing +
// data back, initiator CQ poll — exactly the legs ucx.Endpoint.Get
// charges), registration on the local side if needed, local execution,
// and a one-sided PUT of the region when the kernel writes.
func (m CostModel) PullCost(req Request) sim.Time {
	t := m.Net.SendOverhead + m.Net.WireTime(ucx.GetReqBytes) + m.Net.NICOverhead
	t += m.Net.SendOverhead + m.Net.WireTime(ucx.GetRespBytes+req.DataBytes) +
		m.Net.NICOverhead + m.Net.RecvOverhead/2
	// A cold local registration is an investment that serves pulls to
	// every destination, unlike the remote JIT a cold ship pays per
	// destination: amortize it over the fan-out.
	fan := req.LocalRegFanout
	if fan < 1 {
		fan = 1
	}
	t += regTime(req.LocalRegistered, req.LocalRegCost/sim.Time(fan))
	t += m.ExecTime(m.Local, req.MeanSteps)
	if req.WriteBack {
		// The delta write-back only puts the dirty segments; price the
		// measured mean payload, not the whole region.
		t += m.Net.SendOverhead + m.Net.WireTime(ucx.PutHeaderBytes+putBytesFor(req)) + m.Net.NICOverhead
	}
	return t
}
