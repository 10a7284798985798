package mcode

// Dataflow analysis over verified lowered code: abstract interpretation
// on the control-flow graph proving per-instruction facts the engines
// consume to elide runtime checks, plus static step bounds the
// placement planner uses to price never-executed types.
//
// The abstract domain per register is the three-point lattice
//
//	unknown  ⊑  const(v)            (exact value)
//	unknown  ⊑  stack(room)         (an alloca-derived pointer with at
//	                                 least `room` addressable bytes)
//
// stack(room) is the load-bearing point: MAlloca's contract in vm.go is
// that a *successful* allocation returns a pointer whose rounded size is
// zeroed through the same f.mem the engines index, node memory never
// shrinks, and nothing moves the region — so an access at a constant
// offset within `room` of a dominating alloca can never be out of
// bounds on any execution that reaches it (an alloca that faults aborts
// before the access). The meet over all paths keeps only facts proven
// on every path, which is exactly the dominance requirement.
//
// Soundness contract (pinned by the differential suites): every fact is
// a statement about *all* executions, so an engine eliding a check on a
// proven fact stays bit-identical to the reference interpreter — if an
// elision could ever diverge, the fact proving it is a verifier bug,
// and the oracle comparison catches it.
//
// Cost: one worklist pass per function. Block in-states hold only the
// registers that cross a block boundary (see analyzer), so a block
// visit costs its length plus the number of those registers, not the
// frame size. TestAnalyzeMatchesDenseReference pins the facts to a
// dense reference analysis that keeps a full register file per block.

import "threechains/internal/ir"

// ModuleFacts carries the per-function analysis results, parallel to
// CompiledModule.Funcs. Entries are nil for functions that failed
// structural verification under the tolerant Analyze path.
type ModuleFacts struct {
	Funcs []*FuncFacts
}

// Func returns the facts for function fi, nil-safe on every level.
func (mf *ModuleFacts) Func(fi int) *FuncFacts {
	if mf == nil || fi < 0 || fi >= len(mf.Funcs) {
		return nil
	}
	return mf.Funcs[fi]
}

// BlockFacts is one basic block's static summary.
type BlockFacts struct {
	// Start/End delimit the block's instructions: [Start, End).
	Start, End int32
	// Steps is the block's static step cost — every instruction charges
	// exactly one step, so this is End-Start (local-call body steps are
	// charged inside the callee's own activation).
	Steps int32
}

// FuncFacts is one function's proven dataflow facts.
type FuncFacts struct {
	// Reachable marks instructions reachable from the entry.
	Reachable []bool
	// BoundsOK marks memory accesses (loads, stores, atomics) statically
	// proven in-bounds: the address is a dominating alloca's pointer at
	// a constant offset with the full access inside the zeroed region.
	BoundsOK []bool
	// NoFault marks instructions that can never fault at runtime:
	// pure ALU/FP/compare/cast/branch/ret work, division by a nonzero
	// constant, and BoundsOK memory accesses. Allocas, calls, GOT reads,
	// vector kernels and traps are never NoFault.
	NoFault []bool
	// Blocks lists the basic blocks in start order.
	Blocks []BlockFacts
	// MinSteps is a sound lower bound on the steps one activation of the
	// function charges (shortest entry→return path, local callee minima
	// included after refinement).
	MinSteps int64
	// MaxSteps is an exact upper bound on the steps one activation can
	// charge, or -1 when unbounded (cyclic control flow or local calls).
	MaxSteps int64
	// MaybeUninit reports a reachable read of a register not definitely
	// assigned on every path. Not a fault — frames are zeroed — but a
	// useful lint fact for frontends.
	MaybeUninit bool
}

// BoundsProven reports the BoundsOK fact for pc, nil-safe: no facts
// means no elision.
func (ff *FuncFacts) BoundsProven(pc int32) bool {
	return ff != nil && int(pc) < len(ff.BoundsOK) && ff.BoundsOK[pc]
}

// NoFaultRange reports whether every instruction in [lo, hi) is proven
// NoFault, nil-safe.
func (ff *FuncFacts) NoFaultRange(lo, hi int32) bool {
	if ff == nil || lo < 0 || int(hi) > len(ff.NoFault) {
		return false
	}
	for pc := lo; pc < hi; pc++ {
		if !ff.NoFault[pc] {
			return false
		}
	}
	return true
}

// NoFaultAt reports the NoFault fact for pc, nil-safe.
func (ff *FuncFacts) NoFaultAt(pc int32) bool {
	return ff != nil && int(pc) < len(ff.NoFault) && ff.NoFault[pc]
}

// Bounded reports whether the function has a static step upper bound.
func (ff *FuncFacts) Bounded() bool { return ff != nil && ff.MaxSteps >= 0 }

// analyzeModule runs the dataflow pass once over every structurally
// valid function (bad lists the invalid ones under the tolerant path;
// nil means all valid), then computes the step bounds twice: the second
// round refines local-call minimum-step contributions with the callee
// minima of the first, which keeps the result a sound lower bound even
// for recursion. Only the step bounds read the callee minima, so only
// they run twice.
func analyzeModule(cm *CompiledModule, bad map[int]bool) *ModuleFacts {
	mf := &ModuleFacts{Funcs: make([]*FuncFacts, len(cm.Funcs))}
	as := make([]*analyzer, len(cm.Funcs))
	for i, p := range cm.Funcs {
		if !bad[i] {
			as[i], mf.Funcs[i] = analyzeFunc(p)
		}
	}
	calleeMin := make([]int64, len(cm.Funcs))
	for round := 0; round < 2; round++ {
		for i, a := range as {
			if a != nil {
				a.stepBounds(mf.Funcs[i], calleeMin)
			}
		}
		for i, ff := range mf.Funcs {
			if ff != nil {
				calleeMin[i] = ff.MinSteps
			}
		}
	}
	return mf
}

// Abstract value kinds.
const (
	absUnknown uint8 = iota
	absConst         // v holds the exact register value
	absStack         // v holds the remaining addressable room in bytes
)

type absVal struct {
	kind uint8
	v    uint64
}

// meetVal is the lattice meet: agreement survives, conflict drops to
// unknown (stack pointers keep the smaller proven room).
func meetVal(a, b absVal) absVal {
	switch {
	case a.kind != b.kind:
		return absVal{}
	case a.kind == absConst && a.v == b.v:
		return a
	case a.kind == absStack:
		if b.v < a.v {
			return b
		}
		return a
	case a == b:
		return a
	default:
		return absVal{}
	}
}

// analyzer is the per-function fixed-point state.
//
// Block in-states are sparse: they hold only the function's global
// registers, those some block reads before defining (the "globals" of
// semi-pruned SSA construction). Every other register is defined in a
// block before that block reads it, so its value at block entry is
// never observed. One full-size scratch register file and defs bitset
// run every block: loaded from the block's slab row at entry, and reset
// after the block for the registers it defined, so that nothing stale
// reaches the next block.
type analyzer struct {
	p      *Program
	blocks []BlockFacts
	blkAt  []int32 // pc -> block index (leaders only need Start lookup)
	succ   []int32 // block bi's successors are succ[succAt[bi]:succAt[bi+1]]
	succAt []int32
	seen   []bool

	glob   []int32  // global registers, ascending
	gw     int      // words per block row of defsIn
	in     []absVal // nb × len(glob): the globals' in-state per block
	defsIn []uint64 // nb × gw: bit j set when glob[j] is definitely assigned
	st     []absVal // scratch register file
	defs   []uint64 // scratch definitely-assigned register bitset
	rbuf   []int32  // readRegs scratch
}

// analyzeFunc computes the dataflow facts of one function and returns
// them with the analyzer, whose block graph the step bounds reuse.
// Structure is already verified: every branch target and register is in
// range and the code cannot fall past the end.
func analyzeFunc(p *Program) (*analyzer, *FuncFacts) {
	n := len(p.Code)
	a := &analyzer{p: p}
	a.buildBlocks()
	a.findGlobals()
	nb, g := len(a.blocks), len(a.glob)
	a.gw = (g + 63) / 64
	a.in = make([]absVal, nb*g)
	a.defsIn = make([]uint64, nb*a.gw)
	a.seen = make([]bool, nb)
	a.st = make([]absVal, p.NumRegs)
	a.defs = make([]uint64, (p.NumRegs+63)/64)

	// Entry state: parameters unknown, everything else an exact zero
	// (register files are zeroed per activation — vm.getRegs and the
	// engine frame pools both guarantee it).
	for _, r := range a.glob {
		if int(r) < p.Params {
			setBit(a.defs, int(r))
		} else {
			a.st[r] = absVal{kind: absConst}
		}
	}

	// Fixed point over block in-states.
	work := []int32{0}
	a.joinInto(0)
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		a.runBlock(bi, nil)
		for _, s := range a.succs(bi) {
			if a.joinInto(s) {
				work = append(work, s)
			}
		}
		a.resetBlock(bi)
	}

	// Final pass: per-pc facts from the settled in-states.
	ff := &FuncFacts{
		Reachable: make([]bool, n),
		BoundsOK:  make([]bool, n),
		NoFault:   make([]bool, n),
		Blocks:    a.blocks,
	}
	for bi, blk := range a.blocks {
		if !a.seen[bi] {
			continue
		}
		for pc := blk.Start; pc < blk.End; pc++ {
			ff.Reachable[pc] = true
		}
		a.runBlock(int32(bi), ff)
		a.resetBlock(int32(bi))
	}
	return a, ff
}

// buildBlocks splits the code at leaders (entry, branch targets,
// post-terminator successors) into basic blocks and links each block to
// its successors.
func (a *analyzer) buildBlocks() {
	p := a.p
	n := len(p.Code)
	leader := make([]bool, n)
	leader[0] = true
	for pc := range p.Code {
		in := &p.Code[pc]
		switch in.Op {
		case MJmp:
			leader[in.Target] = true
			if pc+1 < n {
				leader[pc+1] = true
			}
		case MJnz, MCmpBr:
			leader[in.Target] = true
			leader[in.Imm] = true
			if pc+1 < n {
				leader[pc+1] = true
			}
		case MRet, MTrap:
			if pc+1 < n {
				leader[pc+1] = true
			}
		}
	}
	a.blkAt = make([]int32, n)
	for pc := 0; pc < n; pc++ {
		if leader[pc] {
			a.blocks = append(a.blocks, BlockFacts{Start: int32(pc)})
		}
		a.blkAt[pc] = int32(len(a.blocks) - 1)
	}
	nb := len(a.blocks)
	a.succ = make([]int32, 0, 2*nb)
	a.succAt = make([]int32, nb+1)
	for i := range a.blocks {
		blk := &a.blocks[i]
		if i+1 < nb {
			blk.End = a.blocks[i+1].Start
		} else {
			blk.End = int32(n)
		}
		blk.Steps = blk.End - blk.Start
		last := &p.Code[blk.End-1]
		switch last.Op {
		case MJmp:
			a.succ = append(a.succ, a.blkAt[last.Target])
		case MJnz, MCmpBr:
			a.succ = append(a.succ, a.blkAt[last.Target], a.blkAt[last.Imm])
		case MRet, MTrap:
		default:
			// Fallthrough; verification guarantees End < len(code) here.
			a.succ = append(a.succ, a.blkAt[blk.End])
		}
		a.succAt[i+1] = int32(len(a.succ))
	}
}

// succs returns block bi's successor block indices.
func (a *analyzer) succs(bi int32) []int32 {
	return a.succ[a.succAt[bi]:a.succAt[bi+1]]
}

// findGlobals lists the registers that some block reads before defining
// them: the only ones whose value crosses a block boundary observably.
func (a *analyzer) findGlobals() {
	defAt := make([]int32, a.p.NumRegs) // 1 + the block that last defined it
	global := make([]bool, a.p.NumRegs)
	for bi, blk := range a.blocks {
		mark := int32(bi) + 1
		for pc := blk.Start; pc < blk.End; pc++ {
			in := &a.p.Code[pc]
			a.rbuf = readRegs(in, a.rbuf[:0])
			for _, r := range a.rbuf {
				if defAt[r] != mark {
					global[r] = true
				}
			}
			if writesReg(in) {
				defAt[in.Dst] = mark
			}
		}
	}
	for r, g := range global {
		if g {
			a.glob = append(a.glob, int32(r))
		}
	}
}

// row returns block bi's slab rows: its globals' in-state and their
// definitely-assigned bits.
func (a *analyzer) row(bi int32) ([]absVal, []uint64) {
	g := len(a.glob)
	return a.in[int(bi)*g : int(bi+1)*g], a.defsIn[int(bi)*a.gw : int(bi+1)*a.gw]
}

// runBlock loads block bi's in-state into the scratch registers and
// applies the block's instructions to it.
func (a *analyzer) runBlock(bi int32, ff *FuncFacts) {
	in, defsIn := a.row(bi)
	for j, r := range a.glob {
		a.st[r] = in[j]
		if hasBit(defsIn, j) {
			setBit(a.defs, int(r))
		} else {
			clearBit(a.defs, int(r))
		}
	}
	blk := a.blocks[bi]
	for pc := blk.Start; pc < blk.End; pc++ {
		a.transfer(pc, a.st, a.defs, ff)
	}
}

// resetBlock returns the registers block bi defined to unknown and
// unassigned. The globals are reloaded at every block entry, and a
// non-global is defined before it is read, so a register that readRegs
// missed reads as unknown here instead of as a stale fact.
func (a *analyzer) resetBlock(bi int32) {
	blk := a.blocks[bi]
	for pc := blk.Start; pc < blk.End; pc++ {
		if in := &a.p.Code[pc]; writesReg(in) {
			a.st[in.Dst] = absVal{}
			clearBit(a.defs, int(in.Dst))
		}
	}
}

// joinInto meets the scratch state's globals into block bi's in-state,
// reporting change.
func (a *analyzer) joinInto(bi int32) bool {
	cur, cd := a.row(bi)
	if !a.seen[bi] {
		a.seen[bi] = true
		for j, r := range a.glob {
			cur[j] = a.st[r]
			if hasBit(a.defs, int(r)) {
				setBit(cd, j)
			}
		}
		return true
	}
	changed := false
	for j, r := range a.glob {
		if m := meetVal(cur[j], a.st[r]); m != cur[j] {
			cur[j] = m
			changed = true
		}
		if hasBit(cd, j) && !hasBit(a.defs, int(r)) {
			clearBit(cd, j)
			changed = true
		}
	}
	return changed
}

func hasBit(b []uint64, i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
func setBit(b []uint64, i int)      { b[i/64] |= 1 << (i % 64) }
func clearBit(b []uint64, i int)    { b[i/64] &^= 1 << (i % 64) }

// readRegs appends the registers in reads to buf: exactly the operands
// the reference interpreter (vm.go) reads, and the only registers
// transfer looks at besides the destination. The structural register
// check, the globals pre-pass and the def-before-use lint all use it.
func readRegs(in *MInstr, buf []int32) []int32 {
	switch in.Op {
	case MAdd, MSub, MMul, MSDiv, MUDiv, MSRem, MURem,
		MAnd, MOr, MXor, MShl, MLShr, MAShr,
		MFAdd, MFSub, MFMul, MFDiv, MICmp, MFCmp, MPtrAdd,
		MStore, MCmpBr, MAtomicAddLSE, MAtomicAddCAS, MVReduce:
		return append(buf, in.A, in.B)
	case MTrunc, MSExt, MSIToFP, MUIToFP, MFPToSI, MFPToUI, MLoad, MJnz:
		return append(buf, in.A)
	case MSelect, MAtomicCASOp, MVSet, MVCopy:
		return append(buf, in.A, in.B, in.C)
	case MVBinOp:
		// ArgBase is the element-count register here (see lowerFunc).
		return append(buf, in.A, in.B, in.C, in.ArgBase)
	case MRet:
		if in.A != int32(ir.NoReg) {
			return append(buf, in.A)
		}
	case MCallLocal, MCallExt:
		for i := int32(0); i < in.ArgCount; i++ {
			buf = append(buf, in.ArgBase+i)
		}
	}
	return buf
}

// writesReg reports whether in writes its Dst register (a call only
// when it has a result).
func writesReg(in *MInstr) bool {
	switch in.Op {
	case MNop, MTrap, MStore, MJmp, MJnz, MCmpBr, MRet, MVSet, MVCopy, MVBinOp:
		return false
	case MCallLocal, MCallExt:
		return in.Dst != int32(ir.NoReg)
	}
	return true
}

// transfer applies one instruction to the abstract state. When ff is
// non-nil (the final facts pass) it also records per-pc facts from the
// pre-state.
func (a *analyzer) transfer(pc int32, st []absVal, defs []uint64, ff *FuncFacts) {
	in := &a.p.Code[pc]
	if ff != nil && !ff.MaybeUninit {
		a.rbuf = readRegs(in, a.rbuf[:0])
		for _, r := range a.rbuf {
			if !hasBit(defs, int(r)) {
				ff.MaybeUninit = true
			}
		}
	}
	if writesReg(in) {
		setBit(defs, int(in.Dst))
	}
	set := func(v absVal) { st[in.Dst] = v }
	fact := func(bounds, noFault bool) {
		if ff != nil {
			ff.BoundsOK[pc] = bounds
			ff.NoFault[pc] = noFault
		}
	}
	// inBounds proves a [size]-byte access at base+off within a stack
	// region's remaining room.
	inBounds := func(base absVal, off int64, size int) bool {
		return base.kind == absStack && off >= 0 &&
			uint64(off) <= base.v && uint64(size) <= base.v-uint64(off)
	}

	switch in.Op {
	case MNop:
		fact(false, true)
	case MTrap:
		fact(false, false)
	case MConst:
		fact(false, true)
		set(absVal{kind: absConst, v: uint64(in.Imm)})
	case MAdd:
		fact(false, true)
		x, y := st[in.A], st[in.B]
		switch {
		case x.kind == absConst && y.kind == absConst:
			set(absVal{kind: absConst, v: x.v + y.v})
		case x.kind == absStack && y.kind == absConst && y.v <= x.v:
			set(absVal{kind: absStack, v: x.v - y.v})
		case y.kind == absStack && x.kind == absConst && x.v <= y.v:
			set(absVal{kind: absStack, v: y.v - x.v})
		default:
			set(absVal{})
		}
	case MSub, MMul, MAnd, MXor, MShl, MLShr, MAShr:
		fact(false, true)
		x, y := st[in.A], st[in.B]
		if x.kind == absConst && y.kind == absConst {
			set(absVal{kind: absConst, v: constALU(in.Op, x.v, y.v)})
		} else {
			set(absVal{})
		}
	case MOr:
		fact(false, true)
		x, y := st[in.A], st[in.B]
		switch {
		case in.A == in.B:
			// The lowering's register-copy idiom: or r, r.
			set(x)
		case x.kind == absConst && y.kind == absConst:
			set(absVal{kind: absConst, v: x.v | y.v})
		case x.kind == absConst && x.v == 0:
			set(y)
		case y.kind == absConst && y.v == 0:
			set(x)
		default:
			set(absVal{})
		}
	case MSDiv, MUDiv, MSRem, MURem:
		fact(false, st[in.B].kind == absConst && st[in.B].v != 0)
		set(absVal{})
	case MFAdd, MFSub, MFMul, MFDiv, MICmp, MFCmp,
		MSIToFP, MUIToFP, MFPToSI, MFPToUI:
		fact(false, true)
		set(absVal{})
	case MTrunc:
		fact(false, true)
		if x := st[in.A]; x.kind == absConst {
			set(absVal{kind: absConst, v: truncTo(in.Ty, x.v)})
		} else {
			set(absVal{})
		}
	case MSExt:
		fact(false, true)
		if x := st[in.A]; x.kind == absConst {
			set(absVal{kind: absConst, v: sextFrom(in.Ty, x.v)})
		} else {
			set(absVal{})
		}
	case MSelect:
		fact(false, true)
		set(meetVal(st[in.B], st[in.C]))
	case MAlloca:
		fact(false, false) // stack overflow is a runtime outcome
		set(absVal{kind: absStack, v: (uint64(in.Imm) + 7) &^ 7})
	case MLoad:
		ok := inBounds(st[in.A], in.Imm, in.Ty.Size())
		fact(ok, ok)
		set(absVal{})
	case MStore:
		ok := inBounds(st[in.B], in.Imm, in.Ty.Size())
		fact(ok, ok)
	case MPtrAdd:
		fact(false, true)
		x, y := st[in.A], st[in.B]
		switch {
		case x.kind == absConst && y.kind == absConst:
			set(absVal{kind: absConst, v: x.v + y.v*uint64(in.Imm2) + uint64(in.Imm)})
		case x.kind == absStack && y.kind == absConst &&
			in.Imm >= 0 && in.Imm2 >= 0 &&
			y.v <= 1<<32 && in.Imm2 <= 1<<32 && in.Imm <= 1<<32:
			if tot := y.v*uint64(in.Imm2) + uint64(in.Imm); tot <= x.v {
				set(absVal{kind: absStack, v: x.v - tot})
			} else {
				set(absVal{})
			}
		default:
			set(absVal{})
		}
	case MGlobal:
		fact(false, false) // link table length is a load-time property
		set(absVal{})
	case MJmp, MJnz, MCmpBr, MRet:
		fact(false, true)
	case MCallLocal, MCallExt:
		fact(false, false)
		if in.Dst != int32(ir.NoReg) {
			set(absVal{})
		}
	case MAtomicAddLSE, MAtomicAddCAS, MAtomicCASOp:
		ok := inBounds(st[in.A], 0, 8)
		fact(ok, ok)
		set(absVal{})
	case MVSet, MVCopy, MVBinOp:
		fact(false, false)
	case MVReduce:
		fact(false, false)
		set(absVal{})
	}
}

// constALU folds a two-operand ALU op over constants, mirroring vm.go.
func constALU(op MOp, a, b uint64) uint64 {
	switch op {
	case MSub:
		return a - b
	case MMul:
		return a * b
	case MAnd:
		return a & b
	case MXor:
		return a ^ b
	case MShl:
		return a << (b & 63)
	case MLShr:
		return a >> (b & 63)
	case MAShr:
		return uint64(int64(a) >> (b & 63))
	}
	return 0
}

// stepBounds fills MinSteps/MaxSteps: shortest entry→return path over
// the block graph (plus refined local-callee minima) for the lower
// bound; for the upper bound, the longest path when the graph is
// acyclic and call-free, -1 otherwise.
func (a *analyzer) stepBounds(ff *FuncFacts, calleeMin []int64) {
	nb := len(a.blocks)
	const inf = int64(1) << 62
	weight := make([]int64, nb)
	hasCall := false
	for bi, blk := range a.blocks {
		w := int64(blk.Steps)
		for pc := blk.Start; pc < blk.End; pc++ {
			if a.p.Code[pc].Op == MCallLocal {
				w += calleeMin[a.p.Code[pc].Target]
				if a.seen[bi] {
					hasCall = true
				}
			}
		}
		weight[bi] = w
	}

	// Shortest path by worklist relaxation (weights are positive, the
	// graphs are tiny).
	dist := make([]int64, nb)
	for i := range dist {
		dist[i] = inf
	}
	dist[0] = 0
	work := []int32{0}
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		d := dist[bi] + weight[bi]
		for _, s := range a.succs(bi) {
			if d < dist[s] {
				dist[s] = d
				work = append(work, s)
			}
		}
	}
	ff.MinSteps = inf
	for bi, blk := range a.blocks {
		if dist[bi] == inf {
			continue
		}
		if a.p.Code[blk.End-1].Op == MRet && dist[bi]+weight[bi] < ff.MinSteps {
			ff.MinSteps = dist[bi] + weight[bi]
		}
	}
	if ff.MinSteps == inf {
		// No reachable return: every activation aborts (trap or budget);
		// the only sound static lower bound is the entry block.
		ff.MinSteps = int64(a.blocks[0].Steps)
	}

	// Acyclicity by iterative DFS with colors.
	ff.MaxSteps = -1
	if hasCall {
		return
	}
	color := make([]uint8, nb) // 0 white, 1 grey, 2 black
	order := make([]int32, 0, nb)
	type frame struct {
		bi   int32
		next int
	}
	stack := []frame{{bi: 0}}
	color[0] = 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ss := a.succs(f.bi)
		if f.next < len(ss) {
			s := ss[f.next]
			f.next++
			switch color[s] {
			case 1:
				return // back edge: cyclic, no upper bound
			case 0:
				color[s] = 1
				stack = append(stack, frame{bi: s})
			}
			continue
		}
		color[f.bi] = 2
		order = append(order, f.bi)
		stack = stack[:len(stack)-1]
	}
	// Longest path over the DAG in reverse postorder (order is a
	// postorder, so iterate as-is: successors finish first).
	longest := make([]int64, nb)
	var max int64
	for _, bi := range order {
		best := int64(0)
		for _, s := range a.succs(bi) {
			if longest[s] > best {
				best = longest[s]
			}
		}
		longest[bi] = best + weight[bi]
	}
	max = longest[0]
	ff.MaxSteps = max
}
