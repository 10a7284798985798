package ucx

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"threechains/internal/fabric"
	"threechains/internal/isa"
	"threechains/internal/sim"
)

func testParams() fabric.NetParams {
	return fabric.NetParams{
		BaseLatency:  1300 * sim.Nanosecond,
		LatPerByte:   sim.FromNanos(0.4),
		GapPerByte:   sim.FromNanos(0.08),
		SendOverhead: 100 * sim.Nanosecond,
		RecvOverhead: 80 * sim.Nanosecond,
		NICOverhead:  30 * sim.Nanosecond,
	}
}

type world struct {
	eng *sim.Engine
	net *fabric.Network
	ctx *Context
	wa  *Worker
	wb  *Worker
	ab  *Endpoint
}

func newWorld(t *testing.T) *world {
	t.Helper()
	eng := sim.New()
	net := fabric.New(eng, testParams())
	na := net.AddNode("a", isa.XeonE5(), 1<<20)
	nb := net.AddNode("b", isa.XeonE5(), 1<<20)
	ctx := NewContext(net)
	wa := ctx.NewWorker(na)
	wb := ctx.NewWorker(nb)
	return &world{eng: eng, net: net, ctx: ctx, wa: wa, wb: wb, ab: wa.Connect(wb)}
}

func TestPutWritesRemoteMemory(t *testing.T) {
	w := newWorld(t)
	dst := w.wb.Node.Alloc(64)
	key := w.wb.RegisterMem(dst, 64)
	sig := w.ab.Put([]byte{9, 8, 7}, dst, key)
	w.eng.Run()
	if Status(sig.Value()) != OK {
		t.Fatalf("status %v", Status(sig.Value()))
	}
	got, _ := w.wb.Node.ReadMem(dst, 3)
	if got[0] != 9 || got[2] != 7 {
		t.Fatalf("remote memory %v", got)
	}
	// One-sided: no target CPU time spent.
	if w.wb.Node.Stats.CPUBusy != 0 {
		t.Fatalf("PUT consumed target CPU: %v", w.wb.Node.Stats.CPUBusy)
	}
}

func TestPutRejectsBadRKey(t *testing.T) {
	w := newWorld(t)
	dst := w.wb.Node.Alloc(64)
	key := w.wb.RegisterMem(dst, 8)
	sig := w.ab.Put(make([]byte, 64), dst, key) // exceeds window
	w.eng.Run()
	if Status(sig.Value()) != ErrAccess {
		t.Fatalf("status %v, want ERR_ACCESS", Status(sig.Value()))
	}
	forged := RKey{WorkerID: w.wb.Node.ID, KeyID: 999, Base: dst, Size: 64}
	sig2 := w.ab.Put([]byte{1}, dst, forged)
	w.eng.Run()
	if Status(sig2.Value()) != ErrAccess {
		t.Fatalf("forged rkey status %v", Status(sig2.Value()))
	}
}

func TestGetFetchesRemoteMemory(t *testing.T) {
	w := newWorld(t)
	src := w.wb.Node.Alloc(64)
	if err := w.wb.Node.WriteMem(src, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	key := w.wb.RegisterMem(src, 64)
	op := w.ab.Get(src, 8, key)
	w.eng.Run()
	if Status(op.Done.Value()) != OK {
		t.Fatalf("status %v", Status(op.Done.Value()))
	}
	if len(op.Data) != 8 || op.Data[0] != 1 || op.Data[7] != 8 {
		t.Fatalf("data %v", op.Data)
	}
	if w.wb.Node.Stats.CPUBusy != 0 {
		t.Fatal("GET consumed target CPU")
	}
}

func TestGetRoundTripSlowerThanPutOneWay(t *testing.T) {
	w := newWorld(t)
	buf := w.wb.Node.Alloc(64)
	key := w.wb.RegisterMem(buf, 64)

	var putDone, getDone sim.Time
	w.ab.Put([]byte{1}, buf, key).OnFire(func() { putDone = w.eng.Now() })
	w.eng.Run()

	eng2 := sim.New()
	net2 := fabric.New(eng2, testParams())
	na := net2.AddNode("a", isa.XeonE5(), 1<<20)
	nb := net2.AddNode("b", isa.XeonE5(), 1<<20)
	ctx2 := NewContext(net2)
	wa2, wb2 := ctx2.NewWorker(na), ctx2.NewWorker(nb)
	buf2 := nb.Alloc(64)
	key2 := wb2.RegisterMem(buf2, 64)
	wa2.Connect(wb2).Get(buf2, 8, key2).Done.OnFire(func() { getDone = eng2.Now() })
	eng2.Run()

	if getDone <= putDone {
		t.Fatalf("GET RTT (%v) not slower than PUT one-way (%v)", getDone, putDone)
	}
}

func TestGetBadRKey(t *testing.T) {
	w := newWorld(t)
	op := w.ab.Get(0, 8, RKey{KeyID: 42})
	w.eng.Run()
	if Status(op.Done.Value()) != ErrAccess {
		t.Fatalf("status %v", Status(op.Done.Value()))
	}
}

func TestActiveMessageDispatch(t *testing.T) {
	w := newWorld(t)
	var gotHeader uint64
	var gotData []byte
	w.wb.SetAMHandler(7, func(src *Endpoint, header uint64, data []byte) {
		gotHeader = header
		gotData = append([]byte(nil), data...)
	})
	sig := w.ab.SendAM(7, 0xdead, []byte{1, 2, 3})
	w.eng.Run()
	if Status(sig.Value()) != OK {
		t.Fatalf("status %v", Status(sig.Value()))
	}
	if gotHeader != 0xdead || len(gotData) != 3 || gotData[2] != 3 {
		t.Fatalf("handler saw %x %v", gotHeader, gotData)
	}
	// Two-sided: target CPU was charged.
	if w.wb.Node.Stats.CPUBusy == 0 {
		t.Fatal("AM did not consume target CPU")
	}
}

func TestAMNoHandler(t *testing.T) {
	w := newWorld(t)
	sig := w.ab.SendAM(99, 0, nil)
	w.eng.Run()
	if Status(sig.Value()) != ErrNoHandler {
		t.Fatalf("status %v", Status(sig.Value()))
	}
}

func TestAMReplyPath(t *testing.T) {
	// Handler replies through the back endpoint — the pattern DAPC's
	// ReturnResult uses.
	w := newWorld(t)
	var replied uint64
	w.wa.SetAMHandler(2, func(src *Endpoint, header uint64, data []byte) {
		replied = header
	})
	w.wb.SetAMHandler(1, func(src *Endpoint, header uint64, data []byte) {
		src.SendAM(2, header+1, nil)
	})
	w.ab.SendAM(1, 41, nil)
	w.eng.Run()
	if replied != 42 {
		t.Fatalf("replied = %d", replied)
	}
}

func TestIfuncDrainDelivery(t *testing.T) {
	w := newWorld(t)
	var got []byte
	var from int
	w.wb.SetIfuncDrain(func(batch []IfuncDelivery) {
		for _, d := range batch {
			from = d.SrcNode
			got = append([]byte(nil), d.Frame...)
		}
	})
	sig := w.ab.SendIfunc([]byte{0xAA, 1, 2, 3, 0xBB})
	w.eng.Run()
	if Status(sig.Value()) != OK {
		t.Fatalf("status %v", Status(sig.Value()))
	}
	if from != w.wa.Node.ID || len(got) != 5 || got[0] != 0xAA {
		t.Fatalf("drain saw from=%d frame=%v", from, got)
	}
	if w.wb.Stats.IfuncPolls != 1 || w.wb.Stats.IfuncFrames != 1 {
		t.Fatalf("poll stats %+v", w.wb.Stats)
	}
}

func TestIfuncWithoutDrainRejected(t *testing.T) {
	w := newWorld(t)
	released := 0
	sig := w.ab.SendIfuncPooled([]byte{1}, func([]byte) { released++ })
	w.eng.Run()
	if Status(sig.Value()) != ErrRejected {
		t.Fatalf("status %v", Status(sig.Value()))
	}
	// The rejected frame's bytes are dead: the pooled buffer goes back.
	if released != 1 {
		t.Fatalf("release hook fired %d times on a rejected frame, want 1", released)
	}
}

// TestIfuncSingleFrameDrainCost pins the cost calibration contract: a
// drain that picks up one frame charges exactly RecvOverhead+IfuncPoll
// of CPU — the same per-message charge as the paper's
// one-message-per-poll runtime, so the §V latency fits are unchanged.
func TestIfuncSingleFrameDrainCost(t *testing.T) {
	w := newWorld(t)
	w.wb.IfuncPoll = 200 * sim.Nanosecond
	w.wb.SetIfuncDrain(func([]IfuncDelivery) {})
	w.ab.SendIfunc([]byte{1, 2, 3})
	w.eng.Run()
	want := testParams().RecvOverhead + w.wb.IfuncPoll
	if got := w.wb.Node.Stats.CPUBusy; got != want {
		t.Fatalf("single-frame drain charged %v of CPU, want %v", got, want)
	}
}

// TestIfuncBatchDrainAmortizesPoll delivers a burst that queues while
// the receiver core is busy and checks (a) one poll drains all of it and
// (b) the CPU charge is IfuncPoll + n*RecvOverhead — (n-1) polls cheaper
// than one-at-a-time delivery.
func TestIfuncBatchDrainAmortizesPoll(t *testing.T) {
	w := newWorld(t)
	w.wb.IfuncPoll = 200 * sim.Nanosecond
	var batches [][]IfuncDelivery
	w.wb.SetIfuncDrain(func(batch []IfuncDelivery) {
		// The batch slice is only valid during the call: copy to retain.
		batches = append(batches, append([]IfuncDelivery(nil), batch...))
	})
	// Park the receiver core so all frames land in the queue before the
	// first poll runs.
	w.wb.Node.ExecCPU(10*sim.Microsecond, func() {})
	const n = 5
	for i := 0; i < n; i++ {
		w.ab.SendIfunc([]byte{byte(i)})
	}
	w.eng.Run()
	if len(batches) != 1 {
		t.Fatalf("drains = %d, want 1 drain of %d", len(batches), n)
	}
	if len(batches[0]) != n {
		t.Fatalf("first drain carried %d frames, want %d", len(batches[0]), n)
	}
	for i, d := range batches[0] {
		if d.Frame[0] != byte(i) {
			t.Fatalf("frame %d out of order: %v", i, d.Frame)
		}
	}
	want := 10*sim.Microsecond + w.wb.IfuncPoll + n*testParams().RecvOverhead
	if got := w.wb.Node.Stats.CPUBusy; got != want {
		t.Fatalf("batched drain charged %v of CPU, want %v", got, want)
	}
}

// TestIfuncMaxDrainBoundsBatch pins the paper-fidelity knob: MaxDrain=1
// reproduces one-message-per-poll delivery (with its per-message
// IfuncPoll charge) even when frames are queued.
func TestIfuncMaxDrainBoundsBatch(t *testing.T) {
	w := newWorld(t)
	w.wb.IfuncPoll = 200 * sim.Nanosecond
	w.wb.MaxDrain = 1
	var sizes []int
	w.wb.SetIfuncDrain(func(batch []IfuncDelivery) { sizes = append(sizes, len(batch)) })
	w.wb.Node.ExecCPU(10*sim.Microsecond, func() {})
	const n = 4
	for i := 0; i < n; i++ {
		w.ab.SendIfunc([]byte{byte(i)})
	}
	w.eng.Run()
	if len(sizes) != n {
		t.Fatalf("drains = %d, want %d", len(sizes), n)
	}
	for _, s := range sizes {
		if s != 1 {
			t.Fatalf("drain sizes %v, want all 1", sizes)
		}
	}
	want := 10*sim.Microsecond + n*(w.wb.IfuncPoll+testParams().RecvOverhead)
	if got := w.wb.Node.Stats.CPUBusy; got != want {
		t.Fatalf("MaxDrain=1 charged %v of CPU, want %v", got, want)
	}
}

// backlog is the number of frames waiting for a poll.
func backlog(w *Worker) int { return len(w.ifuncQ) - w.qHead }

// checkQueueSlots scans the whole backing array of the receive queue:
// only the pending batch and the backlog may hold frame references.
func checkQueueSlots(t *testing.T, w *Worker) {
	t.Helper()
	q := w.ifuncQ[:cap(w.ifuncQ)]
	lo := w.qHead - len(w.pendBatch)
	for i, d := range q {
		if i >= lo && i < len(w.ifuncQ) {
			continue
		}
		if d.Frame != nil || d.Release != nil || d.done != nil {
			t.Fatalf("queue slot %d of %d (head %d, len %d, pending %d) still holds a frame",
				i, len(q), w.qHead, len(w.ifuncQ), len(w.pendBatch))
		}
	}
}

// TestIfuncQueueModel drives the receive queue with seeded bursts while
// the receiver core is busy for random spans, at every drain bound, and
// compares each delivered batch against a plain-slice model that
// snapshots the expected batch at pickup time — so a frame that arrives
// between drainIfuncs and consumeBatch (appending in place, or growing
// the array under the batch) must not change what the drain sees.
func TestIfuncQueueModel(t *testing.T) {
	for _, maxDrain := range []int{0, 1, 3, 8} {
		w := newWorld(t)
		w.wb.IfuncPoll = 200 * sim.Nanosecond
		w.wb.MaxDrain = maxDrain
		rng := rand.New(rand.NewSource(int64(17 + maxDrain)))

		var model, expect []uint32 // queued frame ids; the batch picked up
		var delivered, underBatch, grewUnderBatch, peakLive int
		var busy sim.Time
		enqueue := w.ab.hopFn
		w.ab.hopFn = func(a any) {
			checkQueueSlots(t, w.wb)
			if w.wb.pendBatch != nil {
				underBatch++
				if len(w.wb.ifuncQ) == cap(w.wb.ifuncQ) {
					grewUnderBatch++
				}
			}
			model = append(model, binary.LittleEndian.Uint32(a.(*fabric.Message).Data))
			enqueue(a)
			if live := backlog(w.wb); live > peakLive {
				peakLive = live
			}
			if n := len(w.wb.ifuncQ); n > 2*peakLive+len(w.wb.pendBatch) {
				t.Fatalf("MaxDrain %d: queue length %d with peak backlog %d", maxDrain, n, peakLive)
			}
		}
		w.wb.drainFn = func() {
			n := len(model)
			if maxDrain > 0 && n > maxDrain {
				n = maxDrain
			}
			expect, model = append([]uint32(nil), model[:n]...), model[n:]
			w.wb.drainIfuncs()
		}
		w.wb.SetIfuncDrain(func(batch []IfuncDelivery) {
			if len(batch) != len(expect) {
				t.Fatalf("MaxDrain %d: batch of %d frames, model picked up %d", maxDrain, len(batch), len(expect))
			}
			for i, d := range batch {
				if id := binary.LittleEndian.Uint32(d.Frame); id != expect[i] || d.SrcNode != w.wa.Node.ID {
					t.Fatalf("MaxDrain %d: batch[%d] is frame %d from node %d, model says frame %d",
						maxDrain, i, id, d.SrcNode, expect[i])
				}
				d.Release(d.Frame)
			}
			delivered += len(batch)
			// A handler of random length: the next arrivals pile up.
			if rng.Intn(3) == 0 {
				span := sim.Time(rng.Intn(4000)) * sim.Nanosecond
				busy += span
				w.wb.Node.ExecCPU(span, func() {})
			}
		})

		const frames = 3000
		released := make([]int, frames)
		fired := make([]int, frames)
		var at sim.Time
		for id := 0; id < frames; at += sim.Time(rng.Intn(30000)) * sim.Nanosecond {
			// A burst of 1-80 back-to-back sends, then a gap that sometimes
			// lets the queue run dry.
			for burst := 1 + rng.Intn(80); burst > 0 && id < frames; burst, id = burst-1, id+1 {
				id := id
				w.eng.At(at, func() {
					frame := binary.LittleEndian.AppendUint32(nil, uint32(id))
					done := w.ab.SendIfuncPooled(frame, func([]byte) { released[id]++ })
					done.OnFire(func() {
						if Status(done.Value()) == OK {
							fired[id]++
						}
					})
				})
			}
		}
		w.eng.Run()

		if delivered != frames || len(model) != 0 {
			t.Fatalf("MaxDrain %d: delivered %d of %d frames, model holds %d", maxDrain, delivered, frames, len(model))
		}
		for id := range released {
			if released[id] != 1 || fired[id] != 1 {
				t.Fatalf("MaxDrain %d: frame %d released %d times, completed OK %d times", maxDrain, id, released[id], fired[id])
			}
		}
		st := w.wb.Stats
		if st.IfuncFrames != frames || (maxDrain == 1 && st.IfuncPolls != frames) {
			t.Fatalf("MaxDrain %d: poll stats %+v", maxDrain, st)
		}
		want := busy + sim.Time(st.IfuncPolls)*w.wb.IfuncPoll + frames*testParams().RecvOverhead
		if got := w.wb.Node.Stats.CPUBusy; got != want {
			t.Fatalf("MaxDrain %d: charged %v of CPU, want %v", maxDrain, got, want)
		}
		if underBatch == 0 || grewUnderBatch == 0 {
			t.Fatalf("MaxDrain %d: %d arrivals under a pending batch, %d of them growing the array: schedule too tame",
				maxDrain, underBatch, grewUnderBatch)
		}
		checkQueueSlots(t, w.wb)
		if w.wb.qHead != 0 || len(w.wb.ifuncQ) != 0 || w.wb.pendBatch != nil {
			t.Fatalf("MaxDrain %d: drained queue left head %d, len %d, pending %d",
				maxDrain, w.wb.qHead, len(w.wb.ifuncQ), len(w.wb.pendBatch))
		}
	}
}

// TestIfuncQueueDrainAllocs pins the steady state of the paper-fidelity
// path: a 4096-frame backlog drained one frame per poll allocates
// nothing, on the first burst's array or any later one, and a one-off
// storm leaves behind a single array of at most four bursts' slots.
func TestIfuncQueueDrainAllocs(t *testing.T) {
	w := newWorld(t)
	w.wb.MaxDrain = 1
	peak := 0
	w.wb.SetIfuncDrain(func([]IfuncDelivery) {
		if live := backlog(w.wb); live > peak {
			peak = live
		}
	})
	const burst = 4096
	frame := []byte{1, 2, 3, 4}
	storm := func() {
		// Straight into the message buffer: the fabric's message pool
		// sheds entries under the race detector, and this pin is about
		// the queue alone.
		for i := 0; i < burst; i++ {
			w.wb.enqueueIfunc(IfuncDelivery{Frame: frame})
		}
		w.eng.Run()
	}
	storm()
	if peak != burst-1 {
		t.Fatalf("first poll left a backlog of %d frames, want %d", peak, burst-1)
	}
	if allocs := testing.AllocsPerRun(3, storm); allocs > 0 {
		t.Errorf("draining a %d-frame backlog at MaxDrain=1 allocates %.0f objects per burst, want 0", burst, allocs)
	}
	if polls := w.wb.Stats.IfuncPolls; polls != w.wb.Stats.IfuncFrames || polls != 5*burst {
		t.Fatalf("poll stats %+v, want %d one-frame polls", w.wb.Stats, 5*burst)
	}
	if c := cap(w.wb.ifuncQ); c > 4*burst {
		t.Errorf("a %d-frame storm left a %d-slot queue array", burst, c)
	}
	checkQueueSlots(t, w.wb)
}

// TestIfuncQueueSustainedStreamBounded keeps the queue from ever running
// dry: the dead prefix must be reclaimed under way, not only on empty.
func TestIfuncQueueSustainedStreamBounded(t *testing.T) {
	w := newWorld(t)
	w.wb.MaxDrain = 1
	frame := []byte{1, 2, 3, 4}
	const window, total = 32, 20000
	sent := 0
	w.wb.SetIfuncDrain(func([]IfuncDelivery) {
		if sent == total {
			return
		}
		// Closed loop, one in for one out, behind a handler slow enough
		// that the replacement lands before the backlog is gone.
		sent++
		w.ab.SendIfuncQuiet(frame, nil)
		w.wb.Node.ExecCPU(2*sim.Microsecond, func() {})
		if backlog(w.wb) == 0 {
			t.Fatalf("queue ran dry after %d frames", w.wb.Stats.IfuncFrames)
		}
	})
	w.wb.Node.ExecCPU(100*sim.Microsecond, func() {})
	for i := 0; i < window; i++ {
		w.ab.SendIfuncQuiet(frame, nil)
	}
	w.eng.Run()
	if got := w.wb.Stats.IfuncFrames; got != total+window {
		t.Fatalf("drained %d frames, want %d", got, total+window)
	}
	if c := cap(w.wb.ifuncQ); c > 4*window {
		t.Fatalf("a stream with a %d-frame backlog grew the queue array to %d slots", window, c)
	}
}

func TestAMLatencyGrowsWithSize(t *testing.T) {
	measure := func(n int) sim.Time {
		w := newWorld(t)
		w.wb.SetAMHandler(1, func(*Endpoint, uint64, []byte) {})
		var done sim.Time
		w.ab.SendAM(1, 0, make([]byte, n)).OnFire(func() { done = w.eng.Now() })
		w.eng.Run()
		return done
	}
	small, big := measure(1), measure(5152)
	if big <= small {
		t.Fatalf("5KB AM (%v) not slower than 1B AM (%v)", big, small)
	}
	// The gap should be roughly LatPerByte * Δsize.
	wantGap := sim.Time(5151) * testParams().LatPerByte
	gap := big - small
	if gap < wantGap/2 || gap > wantGap*2 {
		t.Fatalf("size gap %v, expected about %v", gap, wantGap)
	}
}

func TestPipelinedAMRateBoundByOverheads(t *testing.T) {
	// Message rate must be bounded by per-message costs, not by base
	// latency: many in-flight messages complete back to back.
	w := newWorld(t)
	count := 0
	w.wb.SetAMHandler(1, func(*Endpoint, uint64, []byte) { count++ })
	const n = 1000
	for i := 0; i < n; i++ {
		w.ab.SendAM(1, 0, []byte{1})
	}
	w.eng.Run()
	if count != n {
		t.Fatalf("delivered %d of %d", count, n)
	}
	total := w.eng.Now()
	perMsg := total / n
	// Per-message time must be near the bottleneck (recv overhead +
	// dispatch), far below the 1.3µs base latency.
	if perMsg > 500*sim.Nanosecond {
		t.Fatalf("pipelined rate %v/msg — pipeline is serializing on latency", perMsg)
	}
}

func TestRKeyIsPortable(t *testing.T) {
	// An rkey handed to a third party still works (it names the window,
	// not the connection).
	eng := sim.New()
	net := fabric.New(eng, testParams())
	na := net.AddNode("a", isa.XeonE5(), 1<<20)
	nb := net.AddNode("b", isa.XeonE5(), 1<<20)
	nc := net.AddNode("c", isa.CortexA72(), 1<<20)
	ctx := NewContext(net)
	wa, wb, wc := ctx.NewWorker(na), ctx.NewWorker(nb), ctx.NewWorker(nc)
	buf := nb.Alloc(16)
	key := wb.RegisterMem(buf, 16)
	// a gives the key to c; c writes to b.
	_ = wa
	sig := wc.Connect(wb).Put([]byte{5}, buf, key)
	eng.Run()
	if Status(sig.Value()) != OK {
		t.Fatalf("status %v", Status(sig.Value()))
	}
}

func TestFlush(t *testing.T) {
	w := newWorld(t)
	w.wb.SetAMHandler(1, func(*Endpoint, uint64, []byte) {})
	w.ab.SendAM(1, 0, nil)
	fired := false
	w.wa.Flush().OnFire(func() { fired = true })
	w.eng.Run()
	if !fired {
		t.Fatal("flush never fired")
	}
}
