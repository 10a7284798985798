// Package ucx is a UCP-flavoured communication API over the simulated
// fabric — the stand-in for OpenUCX in the paper. It provides contexts,
// workers, endpoints, memory registration with remote keys, one-sided PUT
// and GET, two-sided Active Messages with a registered handler table, and
// the ifunc delivery hook the Three-Chains runtime plugs into ("the
// Three-Chains API is implemented as an extension of the UCP interface",
// §III-A).
//
// Semantics follow UCP where it matters for the paper's evaluation:
//
//   - PUT and GET are one-sided: the target CPU is not involved, only its
//     NIC (fixed NICOverhead). GET is a request/response round trip.
//   - Active Messages are two-sided: delivery costs receiver CPU time
//     (RecvOverhead + a dispatch cost through the handler pointer table).
//   - ifunc messages are PUT-like into a polled message buffer: NIC
//     write, then the polling loop drains every queued frame on the
//     target CPU in one pickup (one IfuncPoll + RecvOverhead per frame),
//     amortizing the poll cost over message bursts.
//   - Completion is signalled through one-shot sim.Signals whose value is
//     a Status (OK or an error code), like ucs_status_t.
package ucx

import (
	"encoding/binary"
	"fmt"

	"threechains/internal/fabric"
	"threechains/internal/obs"
	"threechains/internal/sim"
)

// Status is the completion status of an operation (ucs_status_t).
type Status uint64

const (
	// OK means success.
	OK Status = iota
	// ErrAccess means an rkey validation or bounds failure.
	ErrAccess
	// ErrNoHandler means an AM id had no registered handler.
	ErrNoHandler
	// ErrRejected means the target refused the message (e.g. ifunc sink
	// not installed).
	ErrRejected
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case OK:
		return "OK"
	case ErrAccess:
		return "ERR_ACCESS"
	case ErrNoHandler:
		return "ERR_NO_HANDLER"
	case ErrRejected:
		return "ERR_REJECTED"
	default:
		return fmt.Sprintf("ERR(%d)", uint64(s))
	}
}

// Context is a UCP context bound to one fabric.
type Context struct {
	Net *fabric.Network
}

// NewContext wraps a fabric network.
func NewContext(net *fabric.Network) *Context { return &Context{Net: net} }

// AMHandler consumes an active message on the target worker.
// header is the sender-chosen 64-bit immediate; data is the payload.
type AMHandler func(src *Endpoint, header uint64, data []byte)

// FrameRelease returns a frame buffer to its sender-side pool once the
// receiver is completely done with the bytes (payload staged, code
// copied). In this single-process simulation the release is a direct
// call back into the sender's runtime; a real transport would recycle
// its registered send buffers at the matching completion event.
type FrameRelease func(frame []byte)

// IfuncDelivery is one ifunc frame handed to the polling drain: the raw
// frame bytes plus the originating worker/node id.
type IfuncDelivery struct {
	SrcNode int
	Frame   []byte

	// Release, when non-nil, must be called by the drain consumer once
	// Frame's bytes are dead (payloads staged into node memory, code
	// sections copied): the buffer returns to the sender's pool. Not
	// calling it is safe — the buffer is simply garbage collected — but
	// defeats the zero-allocation send path.
	Release FrameRelease

	// done fires with a Status once the frame has been handed to the
	// drain (transport-level completion, owned by the worker). Quiet
	// sends (SendIfuncQuiet) leave it nil: no completion is observed, so
	// no signal is allocated.
	done *sim.Signal
}

// IfuncDrain consumes a batch of delivered ifunc frames — every frame
// the polling loop found queued for this node on one poll (installed by
// the Three-Chains runtime). Draining the whole queue per poll is what
// amortizes the fixed poll cost over message bursts: the batch is
// charged one IfuncPoll plus a per-frame pickup cost (RecvOverhead)
// before the drain is invoked, instead of IfuncPoll per frame.
//
// The batch slice is only valid for the duration of the call: it is a
// view of the worker's receive queue, whose slots are zeroed and reused
// once the drain returns (the allocation-free steady state of the
// polling loop). Consumers that
// defer work must copy the IfuncDelivery values they retain — the frame
// bytes themselves stay valid until the consumer invokes the delivery's
// Release hook.
type IfuncDrain func(batch []IfuncDelivery)

// memRegion is a registered memory window.
type memRegion struct {
	base, size uint64
}

// RKey is a packed remote key: it names a registered window on a worker
// and travels out of band to peers (like ucp_rkey_pack output).
type RKey struct {
	WorkerID int
	KeyID    uint32
	Base     uint64
	Size     uint64
}

// Worker is a UCP worker: the per-process communication state.
type Worker struct {
	Ctx  *Context
	Node *fabric.Node

	amHandlers map[uint32]AMHandler
	ifuncDrain IfuncDrain
	regions    map[uint32]memRegion
	nextKey    uint32

	// ifuncQ is the polled message buffer: one reused backing array with
	// a head index. Frames the NIC wrote wait in ifuncQ[qHead:]; the
	// slots below qHead have been picked up and are zero, except for the
	// pendBatch slots just under qHead, which are zeroed once that batch
	// is consumed. A poll advances qHead and an arrival appends, so
	// neither touches the other's slots and a pickup of n frames costs
	// O(n) whatever the backlog. The dead prefix is reclaimed by
	// consumeBatch — the one point where no batch view is live — so
	// len(ifuncQ) stays under twice the live backlog plus one batch and
	// the steady-state polling loop allocates nothing. pollPending is set
	// while a poll wakeup is scheduled on the node core.
	ifuncQ      []IfuncDelivery
	qHead       int
	pollPending bool
	// drainFn/consumeFn memoize the drainIfuncs/consumeBatch method
	// values so neither scheduling a poll wakeup nor handing a batch to
	// the drain allocates a fresh closure. pendBatch carries the
	// picked-up batch from drainIfuncs to consumeBatch; the node core
	// serializes the two, so at most one batch is ever in flight.
	drainFn   func()
	consumeFn func()
	pendBatch []IfuncDelivery

	// AMDispatch is the extra CPU cost of dispatching an AM through the
	// handler pointer table (calibrated per testbed).
	AMDispatch sim.Time
	// IfuncPoll is the fixed CPU cost of one ifunc poll: noticing queued
	// messages and entering the pickup loop (calibrated per testbed).
	// Each drained frame additionally costs the fabric's RecvOverhead —
	// so a single-frame drain charges exactly what the paper's
	// one-message-per-poll runtime charged, and every further frame in
	// the same drain amortizes the poll.
	IfuncPoll sim.Time
	// MaxDrain caps how many frames one poll picks up; 0 means drain the
	// whole queue (the default batched pipeline). The paper-fidelity
	// benchmarks pin it to 1 to reproduce the §V one-message-per-poll
	// methodology.
	MaxDrain int

	// Stats counts ifunc polling activity.
	Stats WorkerStats
}

// WorkerStats aggregates polling-loop activity.
type WorkerStats struct {
	// IfuncPolls counts poll pickups (drains) that found frames.
	IfuncPolls uint64
	// IfuncFrames counts frames handed to the drain.
	IfuncFrames uint64
}

// NewWorker creates a worker on the node.
func (c *Context) NewWorker(n *fabric.Node) *Worker {
	return &Worker{
		Ctx:        c,
		Node:       n,
		amHandlers: make(map[uint32]AMHandler),
		regions:    make(map[uint32]memRegion),
	}
}

// SetAMHandler registers (or replaces) the handler for an AM id — the
// predeployed function table of the Active Message baseline.
func (w *Worker) SetAMHandler(id uint32, h AMHandler) { w.amHandlers[id] = h }

// SetIfuncDrain installs the ifunc batch consumer (the Three-Chains
// polling function). Each poll hands the drain every frame queued for
// the node (bounded by MaxDrain), already charged for pickup.
func (w *Worker) SetIfuncDrain(d IfuncDrain) { w.ifuncDrain = d }

// RegisterMem exposes [base, base+size) for remote one-sided access and
// returns the packed key.
func (w *Worker) RegisterMem(base, size uint64) RKey {
	w.nextKey++
	w.regions[w.nextKey] = memRegion{base: base, size: size}
	return RKey{WorkerID: w.Node.ID, KeyID: w.nextKey, Base: base, Size: size}
}

// checkAccess validates a one-sided access against a registered window.
func (w *Worker) checkAccess(key RKey, addr uint64, size int) bool {
	r, ok := w.regions[key.KeyID]
	if !ok {
		return false
	}
	return addr >= r.base && addr+uint64(size) <= r.base+r.size
}

// Endpoint connects a local worker to a remote worker (reliable,
// ordered).
type Endpoint struct {
	W    *Worker
	Peer *Worker

	// onNIC/hopFn memoize the ifunc arrival pipeline: one handler pair
	// per endpoint instead of two closures per message. Per-send state
	// (the completion signal and the frame-release hook) rides on the
	// pooled fabric.Message instead.
	onNIC fabric.Handler
	hopFn func(any)
}

// Connect creates an endpoint to peer.
func (w *Worker) Connect(peer *Worker) *Endpoint {
	ep := &Endpoint{W: w, Peer: peer}
	ep.onNIC = ep.ifuncArrive
	ep.hopFn = ep.ifuncEnqueue
	return ep
}

// Protocol header sizes model UCP's wire framing. AMHeaderBytes is sized
// so the paper's TSI Active Message (1-byte payload) comes out at 33
// bytes on the wire, matching §V-A; ifunc frames carry their own header
// (package ifunc) and are sent verbatim.
const (
	PutHeaderBytes = 24 // put: remote addr + rkey + length
	GetReqBytes    = 32 // get request descriptor
	GetRespBytes   = 16 // get response framing around the data
	AMHeaderBytes  = 32 // am id + immediate + ucp framing
)

// Put writes data into remote memory at addr (one-sided). The returned
// signal fires with a Status when the remote write has completed.
func (ep *Endpoint) Put(data []byte, addr uint64, key RKey) *sim.Signal {
	done := ep.W.Node.Eng().NewSignal()
	wire := make([]byte, PutHeaderBytes+len(data))
	copy(wire[PutHeaderBytes:], data)
	params := ep.W.Ctx.Net.Params
	ep.W.Node.Send(ep.Peer.Node, wire, nil, func(msg *fabric.Message) {
		// NIC-side write after NIC processing; no target CPU. The pooled
		// message dies with this handler: capture the payload slice.
		payload := msg.Data[PutHeaderBytes:]
		msg.Dst.Eng().After(params.NICOverhead, func() {
			if !ep.Peer.checkAccess(key, addr, len(payload)) {
				done.Fire(uint64(ErrAccess))
				return
			}
			if err := ep.Peer.Node.WriteMem(addr, payload); err != nil {
				done.Fire(uint64(ErrAccess))
				return
			}
			done.Fire(uint64(OK))
		})
	})
	return done
}

// PutSeg is one segment of a vectored PutV: Off is the byte offset from
// the operation's base address, Data the bytes to write there.
type PutSeg struct {
	Off  int
	Data []byte
}

// PutSegHeaderBytes is the per-segment wire descriptor of PutV: a
// 64-bit offset and a 32-bit length ahead of the segment's bytes.
const PutSegHeaderBytes = 12

// PutVWireBytes returns the wire payload of a vectored put carrying the
// given segments (excluding the fixed PutHeaderBytes) — the quantity
// the placement cost model prices and the runtime compares against a
// whole-region Put when deciding whether a delta is worth it.
func PutVWireBytes(segs []PutSeg) int {
	n := 0
	for _, s := range segs {
		n += PutSegHeaderBytes + len(s.Data)
	}
	return n
}

// PutV writes several discontiguous segments into remote memory at
// addr+seg.Off in one one-sided operation: a single message carries the
// PUT header plus a (offset, length, bytes) descriptor per segment, and
// the target NIC scatters the writes — one SendOverhead and one
// NICOverhead regardless of segment count, which is what makes delta
// write-back cheaper than a whole-region Put whenever the dirty bytes
// (plus descriptors) undercut the region size. The returned signal
// fires with a Status when every segment has been written (ErrAccess if
// any segment fails validation; earlier segments may already be
// applied, like a partially completed RDMA scatter).
func (ep *Endpoint) PutV(segs []PutSeg, addr uint64, key RKey) *sim.Signal {
	done := ep.W.Node.Eng().NewSignal()
	wire := make([]byte, PutHeaderBytes+PutVWireBytes(segs))
	off := PutHeaderBytes
	for _, s := range segs {
		binary.LittleEndian.PutUint64(wire[off:], uint64(s.Off))
		binary.LittleEndian.PutUint32(wire[off+8:], uint32(len(s.Data)))
		copy(wire[off+PutSegHeaderBytes:], s.Data)
		off += PutSegHeaderBytes + len(s.Data)
	}
	params := ep.W.Ctx.Net.Params
	ep.W.Node.Send(ep.Peer.Node, wire, nil, func(msg *fabric.Message) {
		// NIC-side scatter after NIC processing; no target CPU. The pooled
		// message dies with this handler: capture the payload slice.
		payload := msg.Data[PutHeaderBytes:]
		msg.Dst.Eng().After(params.NICOverhead, func() {
			p := payload
			for len(p) >= PutSegHeaderBytes {
				segOff := binary.LittleEndian.Uint64(p)
				segLen := int(binary.LittleEndian.Uint32(p[8:]))
				if PutSegHeaderBytes+segLen > len(p) {
					done.Fire(uint64(ErrAccess))
					return
				}
				data := p[PutSegHeaderBytes : PutSegHeaderBytes+segLen]
				if !ep.Peer.checkAccess(key, addr+segOff, len(data)) {
					done.Fire(uint64(ErrAccess))
					return
				}
				if err := ep.Peer.Node.WriteMem(addr+segOff, data); err != nil {
					done.Fire(uint64(ErrAccess))
					return
				}
				p = p[PutSegHeaderBytes+segLen:]
			}
			done.Fire(uint64(OK))
		})
	})
	return done
}

// GetOp is an in-flight GET: Done fires with a Status; Data holds the
// fetched bytes on success.
type GetOp struct {
	Done *sim.Signal
	Data []byte
}

// Get fetches size bytes from remote memory at addr (one-sided
// request/response through the target NIC).
func (ep *Endpoint) Get(addr uint64, size int, key RKey) *GetOp {
	params := ep.W.Ctx.Net.Params
	op := &GetOp{Done: ep.W.Node.Eng().NewSignal()}
	req := make([]byte, GetReqBytes)
	ep.W.Node.Send(ep.Peer.Node, req, nil, func(msg *fabric.Message) {
		msg.Dst.Eng().After(params.NICOverhead, func() {
			if !ep.Peer.checkAccess(key, addr, size) {
				// Error response travels back as a small message.
				ep.Peer.Node.Send(ep.W.Node, make([]byte, 16), nil, func(*fabric.Message) {
					op.Done.Fire(uint64(ErrAccess))
				})
				return
			}
			data, err := ep.Peer.Node.ReadMem(addr, size)
			if err != nil {
				ep.Peer.Node.Send(ep.W.Node, make([]byte, 16), nil, func(*fabric.Message) {
					op.Done.Fire(uint64(ErrAccess))
				})
				return
			}
			resp := make([]byte, GetRespBytes+len(data))
			copy(resp[GetRespBytes:], data)
			ep.Peer.Node.Send(ep.W.Node, resp, nil, func(m *fabric.Message) {
				// RDMA READ completion: response NIC processing plus the
				// initiator's CQ poll — the reason READ round trips cost
				// more than twice a WRITE's one-way latency. The pooled
				// message dies with this handler: capture the data slice.
				fetched := m.Data[GetRespBytes:]
				m.Dst.Eng().After(params.NICOverhead, func() {
					ep.W.Node.ExecCPU(params.RecvOverhead/2, func() {
						op.Data = fetched
						op.Done.Fire(uint64(OK))
					})
				})
			})
		})
	})
	return op
}

// SendAM delivers an active message to the peer's registered handler.
// The signal fires with a Status after the remote handler dispatch.
func (ep *Endpoint) SendAM(id uint32, header uint64, payload []byte) *sim.Signal {
	params := ep.W.Ctx.Net.Params
	done := ep.W.Node.Eng().NewSignal()
	wire := make([]byte, AMHeaderBytes+len(payload))
	copy(wire[AMHeaderBytes:], payload)
	src := ep
	ep.W.Node.Send(ep.Peer.Node, wire, nil, func(msg *fabric.Message) {
		// Two-sided: receiver CPU runs the dispatch + handler. The pooled
		// message dies with this handler: capture the payload slice.
		data := msg.Data[AMHeaderBytes:]
		ep.Peer.Node.ExecCPU(params.RecvOverhead+ep.Peer.AMDispatch, func() {
			h, ok := ep.Peer.amHandlers[id]
			if !ok {
				done.Fire(uint64(ErrNoHandler))
				return
			}
			back := ep.Peer.Connect(src.W)
			h(back, header, data)
			done.Fire(uint64(OK))
		})
	})
	return done
}

// SendIfunc delivers an ifunc message frame to the peer's polling loop:
// a NIC-level write into the message buffer, an enqueue, and a CPU-side
// poll that drains the queue (the paper's Figure 1 target-side flow,
// batched). The signal fires with a Status once the frame has been
// handed to the drain.
func (ep *Endpoint) SendIfunc(frame []byte) *sim.Signal {
	return ep.SendIfuncPooled(frame, nil)
}

// SendIfuncPooled is SendIfunc for senders that recycle frame buffers:
// release (which may be nil) is delivered alongside the frame and called
// by the drain consumer once the bytes are dead. The fabric does not
// copy message data, so the sender must not touch the buffer until then.
func (ep *Endpoint) SendIfuncPooled(frame []byte, release FrameRelease) *sim.Signal {
	done := ep.W.Node.Eng().NewSignal()
	ep.sendIfunc(frame, release, done)
	return done
}

// SendIfuncQuiet is SendIfuncPooled without a completion signal, for
// senders that never observe transport-level completion (the runtime's
// warm streaming path): two signal allocations (local + done) and their
// fire bookkeeping are skipped per message. Timing is identical.
func (ep *Endpoint) SendIfuncQuiet(frame []byte, release FrameRelease) {
	ep.sendIfunc(frame, release, nil)
}

func (ep *Endpoint) sendIfunc(frame []byte, release FrameRelease, done *sim.Signal) {
	// The per-send varying state (completion signal, release hook) rides
	// on the pooled message; the arrival pipeline is the endpoint's
	// memoized handler pair — nothing here allocates.
	ep.W.Node.SendCarrying(ep.Peer.Node, frame, nil, done, release, ep.onNIC)
}

// ifuncArrive is the NIC-arrival stage: it holds the message across the
// NIC processing delay and hands it to the enqueue stage.
func (ep *Endpoint) ifuncArrive(msg *fabric.Message) {
	msg.Retain()
	msg.Dst.Eng().AfterCall(ep.W.Ctx.Net.Params.NICOverhead, ep.hopFn, msg)
}

// ifuncEnqueue is the post-NIC stage: the frame enters the polled
// message buffer and the message returns to the fabric pool.
func (ep *Endpoint) ifuncEnqueue(a any) {
	msg := a.(*fabric.Message)
	done := msg.Sig
	if ep.Peer.ifuncDrain == nil {
		if msg.Rel != nil {
			msg.Rel(msg.Data)
		}
		msg.Free()
		if done != nil {
			done.Fire(uint64(ErrRejected))
		}
		return
	}
	d := IfuncDelivery{SrcNode: msg.Src.ID, Frame: msg.Data, Release: FrameRelease(msg.Rel), done: done}
	msg.Free()
	ep.Peer.enqueueIfunc(d)
}

// enqueueIfunc appends a NIC-written frame to the message buffer and
// makes sure a poll wakeup is scheduled on the node core.
func (w *Worker) enqueueIfunc(d IfuncDelivery) {
	w.ifuncQ = append(w.ifuncQ, d)
	w.schedulePoll()
}

// schedulePoll arms the next poll pickup. The wakeup is a zero-cost CPU
// event: it lands when the core is next free, so frames that arrive
// while the core is busy accumulate and are drained together — the
// batching emerges from backpressure, exactly like a real polling loop
// that finds several messages after a long handler.
func (w *Worker) schedulePoll() {
	if w.pollPending || w.qHead == len(w.ifuncQ) {
		return
	}
	w.pollPending = true
	if w.drainFn == nil {
		w.drainFn = w.drainIfuncs
	}
	w.Node.ExecCPU(0, w.drainFn)
}

// drainIfuncs is the poll pickup: it takes every queued frame (bounded
// by MaxDrain), charges one IfuncPoll plus RecvOverhead per frame, and
// hands the batch to the drain. The batch is a capacity-clipped view of
// the queue array — no frame is copied, whole queue or not — and stays
// intact until consumeBatch: later arrivals append beyond it (or move to
// a grown array and leave it behind), and nothing else writes below
// qHead.
func (w *Worker) drainIfuncs() {
	w.pollPending = false
	n := len(w.ifuncQ) - w.qHead
	if n == 0 {
		return
	}
	if w.MaxDrain > 0 && n > w.MaxDrain {
		n = w.MaxDrain
	}
	if w.pendBatch != nil {
		panic("ucx: overlapping ifunc batch consumption")
	}
	end := w.qHead + n
	w.pendBatch = w.ifuncQ[w.qHead:end:end]
	w.qHead = end
	w.Stats.IfuncPolls++
	w.Stats.IfuncFrames += uint64(n)
	cost := w.IfuncPoll + sim.Time(n)*w.Ctx.Net.Params.RecvOverhead
	if tr := w.Node.Trace; tr != nil {
		// The drain's core occupancy: ExecCPU queues behind whatever the
		// core is doing, so the span starts when the core frees up.
		tr.Span(obs.TrackCore, "drain", w.Node.CPUFreeAt(), cost).
			Arg("frames", uint64(n))
	}
	if w.consumeFn == nil {
		w.consumeFn = w.consumeBatch
	}
	w.Node.ExecCPU(cost, w.consumeFn)
	// Frames beyond MaxDrain wait for the next poll, which starts after
	// this batch's pickup charge.
	w.schedulePoll()
}

// consumeBatch hands the picked-up batch to the installed drain and
// fires per-frame completions. It runs on the node core right after the
// pickup charge; the next poll is already queued behind it, so the
// single pending-batch slot can never be overwritten.
func (w *Worker) consumeBatch() {
	batch := w.pendBatch
	w.pendBatch = nil
	w.ifuncDrain(batch)
	for i := range batch {
		if batch[i].done != nil {
			batch[i].done.Fire(uint64(OK))
		}
	}
	// Zero the consumed slots where the queue holds them now (a grown
	// array carries copies), so queue capacity never pins a sender's
	// pooled frame buffer.
	q, head := w.ifuncQ, w.qHead
	clear(q[head-len(batch) : head])
	// No batch view is live here, so this is where the dead prefix goes:
	// once it is at least as long as the backlog, slide the backlog to
	// the front (an empty queue just rewinds). The move is paid for by
	// the frames consumed since the last one — O(1) amortized per frame.
	if live := len(q) - head; head >= live {
		copy(q, q[head:])
		clear(q[head:])
		w.ifuncQ, w.qHead = q[:live], 0
	}
}

// Flush returns a signal that fires when all previously posted operations
// from this worker have left the sender NIC (local flush semantics).
func (w *Worker) Flush() *sim.Signal {
	eng := w.Node.Eng()
	s := eng.NewSignal()
	free := w.Node.CPUFreeAt()
	if t := eng.Now(); free < t {
		free = t
	}
	eng.AtFire(free, s, uint64(OK))
	return s
}
