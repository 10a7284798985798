// Package fabric models the RDMA interconnect and the compute nodes of a
// distributed heterogeneous cluster — the substitute for the paper's
// InfiniBand testbeds (Ookami's ConnectX-6 HDR100 fabric and Thor's
// BlueField-2 100 Gb/s DPUs).
//
// The timing model is LogGP-flavoured and calibrated per testbed (package
// testbed): a message of n bytes posted at time t occupies the sender NIC
// for SendOverhead + n·PerByte, reaches the receiver NIC at
// t + SendOverhead + BaseLatency + n·PerByte, and NIC-level handlers
// (one-sided PUT/GET) run there with no target CPU involvement while
// CPU-level deliveries queue behind the node's single simulated core.
// Message ordering per (src,dst) pair is preserved, like a UCX reliable
// connection.
//
// Every node owns a byte-addressable heap: the memory that IR pointers
// index, where pointer-chase tables live, where ifunc message queues are
// carved out. A bump allocator hands out regions; there is no free — the
// simulation's working sets are small and bounded.
package fabric

import (
	"fmt"
	"sync"

	"threechains/internal/isa"
	"threechains/internal/obs"
	"threechains/internal/sim"
)

// NetParams is the wire/overhead parameterization of a fabric. Latency
// and bandwidth are parameterized separately, LogGP style: the per-byte
// contribution to one-way latency (protocol pipelining, copies, eager
// thresholds) is much larger than the per-byte sender occupancy (raw link
// bandwidth), which is what the paper's Tables IV–VI show — a 5.2 KiB
// uncached ifunc doubles the latency but only costs ~400 ns of link time
// at 100 Gb/s message rates.
type NetParams struct {
	// BaseLatency is the one-way 0-byte latency (wire + switch + NIC).
	BaseLatency sim.Time
	// LatPerByte is the per-byte contribution to one-way latency.
	LatPerByte sim.Time
	// GapPerByte is the per-byte sender NIC occupancy (1/bandwidth).
	GapPerByte sim.Time
	// SendOverhead is sender CPU/NIC posting cost per message.
	SendOverhead sim.Time
	// RecvOverhead is receiver-side software cost per CPU-delivered
	// message (two-sided only; one-sided ops bypass it).
	RecvOverhead sim.Time
	// NICOverhead is the receiver NIC processing cost for one-sided
	// operations (remote read/write engines).
	NICOverhead sim.Time
}

// WireTime returns the one-way delivery time for n payload bytes.
func (p NetParams) WireTime(n int) sim.Time {
	return p.BaseLatency + sim.Time(n)*p.LatPerByte
}

// Message is one fabric-level delivery. Messages are pooled: a *Message
// is valid only for the duration of the Handler call unless the handler
// takes ownership with Retain (and later returns it with Free). The Data
// slice is NOT pooled with the message — its lifetime is the upper
// layer's (frame buffers have their own pool) — so deferred work must
// capture Data, never the Message.
type Message struct {
	Src  *Node
	Dst  *Node
	Size int
	Data []byte
	// Meta carries structured payload for upper layers (frame headers
	// stay as real bytes in Data; Meta holds decoded routing info).
	Meta interface{}
	// Sig and Rel are optional per-delivery completion carriers for
	// transports (ucx): a completion signal to fire and a buffer-release
	// hook to run once the payload is consumed. Keeping them on the
	// pooled message lets a transport use one memoized arrival handler
	// for every send instead of allocating a closure per message.
	Sig *sim.Signal
	Rel func([]byte)

	hnd      Handler
	retained bool
}

// Retain transfers message ownership to the handler: the fabric will not
// recycle it when the handler returns. The owner must call Free.
func (m *Message) Retain() { m.retained = true }

// Free returns a retained message to the pool. The message must not be
// touched afterwards.
func (m *Message) Free() { m.Dst.net.freeMsg(m) }

// Handler consumes a delivered message on the destination node.
type Handler func(msg *Message)

// deliverMsg is the shared arrival event body: one memoized func for
// every send keeps the per-message event closure-free (the *Message is
// the event argument).
func deliverMsg(a any) {
	msg := a.(*Message)
	dst := msg.Dst
	dst.Stats.MsgsReceived++
	dst.Stats.BytesReceived += uint64(msg.Size)
	if dst.Trace != nil {
		// Arrival runs as the destination domain, so this writes the
		// destination's buffer from its own dispatch — never the sender's.
		dst.Trace.Instant(obs.TrackNICIn, "rx", dst.eng.Now()).
			Arg("bytes", uint64(msg.Size)).Arg("src", uint64(msg.Src.ID))
	}
	h := msg.hnd
	h(msg)
	if !msg.retained {
		dst.net.freeMsg(msg)
	}
}

// Node is one machine (or one DPU subsystem) on the fabric.
type Node struct {
	ID    int
	Name  string
	March *isa.MicroArch
	net   *Network
	// eng is the node's per-domain engine view: Now() reads the node's
	// shard clock and At/After execute as this node, so the ordering key
	// and shard routing are correct under sharded execution.
	eng *sim.Engine

	mem      []byte
	heapNext uint64

	// stackBase/stackSize delimit the execution stack region used by
	// guest code allocas.
	stackBase, stackSize uint64

	// Resource serialization points.
	txFree  sim.Time // sender NIC
	cpuFree sim.Time // single simulated core

	// lastArrive enforces per-destination in-order delivery (reliable
	// connection semantics): keyed by destination node id on the sender.
	lastArrive map[int]sim.Time

	// Stats are cumulative counters for reports.
	Stats NodeStats

	// Trace, when set, receives this node's virtual-time spans and
	// events (obs). Nil costs one compare per instrumented site; the
	// field is written only from this node's dispatch context, matching
	// the NodeTrace single-writer contract.
	Trace *obs.NodeTrace
}

// NodeStats aggregates per-node traffic and compute counters.
type NodeStats struct {
	MsgsSent      uint64
	BytesSent     uint64
	MsgsReceived  uint64
	BytesReceived uint64
	CPUBusy       sim.Time
}

// Network is the cluster: an engine, shared wire parameters and nodes.
type Network struct {
	Eng     *sim.Engine
	Params  NetParams
	nodes   []*Node
	msgPool sync.Pool
}

// New creates an empty network on the engine. The wire's latency floor
// (SendOverhead + BaseLatency — no delivery can beat it) is proposed to
// the engine as the conservative cross-shard lookahead, which is what
// lets a sharded engine run nodes in parallel windows of exactly that
// width.
func New(eng *sim.Engine, params NetParams) *Network {
	eng.ProposeLookahead(params.SendOverhead + params.BaseLatency)
	nw := &Network{Eng: eng, Params: params}
	nw.msgPool.New = func() any { return new(Message) }
	return nw
}

func (nw *Network) allocMsg() *Message { return nw.msgPool.Get().(*Message) }

func (nw *Network) freeMsg(m *Message) {
	*m = Message{}
	nw.msgPool.Put(m)
}

// Nodes returns all nodes in creation order.
func (nw *Network) Nodes() []*Node { return nw.nodes }

// Node returns the node with the given id.
func (nw *Network) Node(id int) *Node { return nw.nodes[id] }

// AddNode creates a node with the given µarch and heap size. A stack
// region (1 MiB or a quarter of the heap, whichever is smaller) is
// reserved at the top of the heap for guest allocas.
func (nw *Network) AddNode(name string, march *isa.MicroArch, memSize int) *Node {
	stack := uint64(1 << 20)
	if stack > uint64(memSize)/4 {
		stack = uint64(memSize) / 4
	}
	n := &Node{
		ID:        len(nw.nodes),
		Name:      name,
		March:     march,
		net:       nw,
		mem:       make([]byte, memSize),
		stackBase: uint64(memSize) - stack,
		stackSize: stack,
	}
	n.eng = nw.Eng.Domain(n.ID)
	nw.nodes = append(nw.nodes, n)
	return n
}

// Eng returns the node's engine view (domain-bound: Now() is the node's
// shard clock, At/After execute as this node). Transports and runtimes
// must schedule node-context work through this view, not the network's
// root engine, or sharded runs would mis-key and mis-route events.
func (n *Node) Eng() *sim.Engine { return n.eng }

// Mem returns the node heap. IR pointers index this slice.
func (n *Node) Mem() []byte { return n.mem }

// StackRegion returns the alloca arena bounds.
func (n *Node) StackRegion() (base, size uint64) { return n.stackBase, n.stackSize }

// Network returns the owning network.
func (n *Node) Network() *Network { return n.net }

// Alloc reserves size bytes of node heap (8-byte aligned) and returns the
// address. It panics when the heap is exhausted: simulation working sets
// are sized up front, so exhaustion is a configuration bug.
func (n *Node) Alloc(size int) uint64 {
	sz := (uint64(size) + 7) &^ 7
	if n.heapNext+sz > n.stackBase {
		panic(fmt.Sprintf("fabric: node %s heap exhausted (%d + %d > %d)",
			n.Name, n.heapNext, sz, n.stackBase))
	}
	addr := n.heapNext
	n.heapNext += sz
	return addr
}

// HeapUsed returns the number of allocated heap bytes.
func (n *Node) HeapUsed() uint64 { return n.heapNext }

// ExecCPU schedules fn on the node's core after cost of compute time,
// queueing behind whatever the core is already doing. It returns the
// completion time. Use cost 0 for bookkeeping that still must serialize
// with node compute.
func (n *Node) ExecCPU(cost sim.Time, fn func()) sim.Time {
	eng := n.eng
	start := eng.Now()
	if n.cpuFree > start {
		start = n.cpuFree
	}
	done := start + cost
	n.cpuFree = done
	n.Stats.CPUBusy += cost
	eng.At(done, fn)
	return done
}

// CPUFreeAt returns when the core frees up (≥ now).
func (n *Node) CPUFreeAt() sim.Time {
	if t := n.eng.Now(); n.cpuFree < t {
		return t
	}
	return n.cpuFree
}

// Send transmits data to dst and invokes onNIC at the destination NIC
// when the last byte lands. The returned signal fires at local send
// completion (sender CPU free again), like a UCX local completion.
//
// onNIC runs in NIC context: one-sided operations do their memory access
// there; two-sided paths must hop to the destination CPU via ExecCPU.
func (n *Node) Send(dst *Node, data []byte, meta interface{}, onNIC Handler) *sim.Signal {
	local := n.eng.NewSignal()
	n.send(dst, data, meta, onNIC, nil, nil, local)
	return local
}

// SendNoCompletion is Send for callers that never observe local send
// completion (the ifunc fast path): it skips the completion signal and
// its fire event entirely, keeping the warm send path allocation-free.
// Timing is identical to Send.
func (n *Node) SendNoCompletion(dst *Node, data []byte, meta interface{}, onNIC Handler) {
	n.send(dst, data, meta, onNIC, nil, nil, nil)
}

// SendCarrying is SendNoCompletion with per-delivery completion carriers:
// sig and rel ride on the pooled message (msg.Sig / msg.Rel), so a
// transport can use one memoized handler for every send on an endpoint
// instead of allocating a closure capturing the pair per message.
func (n *Node) SendCarrying(dst *Node, data []byte, meta interface{}, sig *sim.Signal, rel func([]byte), onNIC Handler) {
	n.send(dst, data, meta, onNIC, sig, rel, nil)
}

func (n *Node) send(dst *Node, data []byte, meta interface{}, onNIC Handler, sig *sim.Signal, rel func([]byte), local *sim.Signal) {
	eng := n.eng
	p := n.net.Params
	size := len(data)

	// Serialize on the sender NIC: occupancy is overhead + bandwidth gap.
	start := eng.Now()
	if n.txFree > start {
		start = n.txFree
	}
	txTime := p.SendOverhead + sim.Time(size)*p.GapPerByte
	n.txFree = start + txTime

	n.Stats.MsgsSent++
	n.Stats.BytesSent += uint64(size)
	if n.Trace != nil {
		n.Trace.Span(obs.TrackNICOut, "tx", start, txTime).
			Arg("bytes", uint64(size)).Arg("dst", uint64(dst.ID))
	}

	if local != nil {
		eng.AtFire(n.txFree, local, 0)
	}

	arrive := start + p.SendOverhead + p.BaseLatency + sim.Time(size)*p.LatPerByte
	// Reliable-connection ordering: never overtake an earlier message to
	// the same destination.
	if n.lastArrive == nil {
		n.lastArrive = make(map[int]sim.Time)
	}
	if la := n.lastArrive[dst.ID]; arrive < la {
		arrive = la
	}
	n.lastArrive[dst.ID] = arrive
	msg := n.net.allocMsg()
	msg.Src, msg.Dst, msg.Size, msg.Data, msg.Meta = n, dst, size, data, meta
	msg.Sig, msg.Rel, msg.hnd = sig, rel, onNIC
	// The arrival executes as the destination domain: on a sharded
	// engine this is the cross-shard hop, and arrive ≥ now + SendOverhead
	// + BaseLatency ≥ the conservative horizon by construction.
	eng.AtDomainCall(dst.ID, arrive, deliverMsg, msg)
}

// WriteMem copies data into node memory at addr with bounds checking —
// the NIC-side effect of an RDMA PUT.
func (n *Node) WriteMem(addr uint64, data []byte) error {
	if addr > uint64(len(n.mem)) || addr+uint64(len(data)) > uint64(len(n.mem)) {
		return fmt.Errorf("fabric: remote write out of bounds: %#x+%d on %s",
			addr, len(data), n.Name)
	}
	copy(n.mem[addr:], data)
	return nil
}

// ReadMem copies out node memory — the NIC-side effect of an RDMA GET.
func (n *Node) ReadMem(addr uint64, size int) ([]byte, error) {
	if addr > uint64(len(n.mem)) || addr+uint64(size) > uint64(len(n.mem)) {
		return nil, fmt.Errorf("fabric: remote read out of bounds: %#x+%d on %s",
			addr, size, n.Name)
	}
	out := make([]byte, size)
	copy(out, n.mem[addr:])
	return out, nil
}
