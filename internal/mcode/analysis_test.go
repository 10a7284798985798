package mcode

// The dense reference analysis: the dataflow as it ran before block
// in-states were made sparse — a full register file per block, copied
// on every visit, and the whole analysis run twice per function. It is
// kept only as the oracle of TestAnalyzeMatchesDenseReference, which
// requires the sparse analysis to produce the identical FuncFacts.
// analyzeFunc and joinInto below are the old code with their names
// prefixed; the transfer function, block split and step bounds are
// shared.

// DenseAnalyze returns the dense reference facts for cm, tolerant like
// Analyze: structurally invalid functions get nil facts.
func DenseAnalyze(cm *CompiledModule) *ModuleFacts {
	bad := make(map[int]bool)
	for i := range cm.Funcs {
		if verifyFunc(cm, i) != nil {
			bad[i] = true
		}
	}
	return denseAnalyzeModule(cm, bad)
}

func denseAnalyzeModule(cm *CompiledModule, bad map[int]bool) *ModuleFacts {
	mf := &ModuleFacts{Funcs: make([]*FuncFacts, len(cm.Funcs))}
	calleeMin := make([]int64, len(cm.Funcs))
	for round := 0; round < 2; round++ {
		for i := range cm.Funcs {
			if bad[i] {
				continue
			}
			mf.Funcs[i] = denseAnalyzeFunc(cm, i, calleeMin)
		}
		for i, ff := range mf.Funcs {
			if ff != nil {
				calleeMin[i] = ff.MinSteps
			}
		}
	}
	return mf
}

// denseAnalyzer adds the dense per-block states to the shared analyzer.
type denseAnalyzer struct {
	*analyzer
	in     [][]absVal
	defsIn [][]uint64 // definitely-assigned register bitsets
}

func denseAnalyzeFunc(cm *CompiledModule, fi int, calleeMin []int64) *FuncFacts {
	p := cm.Funcs[fi]
	n := len(p.Code)
	a := &denseAnalyzer{analyzer: &analyzer{p: p}}
	a.buildBlocks()
	nb := len(a.blocks)
	a.in = make([][]absVal, nb)
	a.defsIn = make([][]uint64, nb)
	a.seen = make([]bool, nb)

	// Entry state: parameters unknown, everything else an exact zero
	// (register files are zeroed per activation — vm.getRegs and the
	// engine frame pools both guarantee it).
	words := (p.NumRegs + 63) / 64
	entry := make([]absVal, p.NumRegs)
	entryDefs := make([]uint64, words)
	for r := p.Params; r < p.NumRegs; r++ {
		entry[r] = absVal{kind: absConst}
	}
	for r := 0; r < p.Params; r++ {
		entryDefs[r/64] |= 1 << (r % 64)
	}

	// Fixed point over block in-states.
	work := []int32{0}
	a.joinInto(0, entry, entryDefs)
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		st := append([]absVal(nil), a.in[bi]...)
		defs := append([]uint64(nil), a.defsIn[bi]...)
		blk := a.blocks[bi]
		for pc := blk.Start; pc < blk.End; pc++ {
			a.transfer(pc, st, defs, nil)
		}
		for _, s := range a.succs(bi) {
			if a.joinInto(s, st, defs) {
				work = append(work, s)
			}
		}
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
		st := append([]absVal(nil), a.in[bi]...)
		defs := append([]uint64(nil), a.defsIn[bi]...)
		for pc := blk.Start; pc < blk.End; pc++ {
			ff.Reachable[pc] = true
			a.transfer(pc, st, defs, ff)
		}
	}
	a.stepBounds(ff, calleeMin)
	return ff
}

// joinInto meets (st, defs) into block bi's in-state, reporting change.
func (a *denseAnalyzer) joinInto(bi int32, st []absVal, defs []uint64) bool {
	if !a.seen[bi] {
		a.seen[bi] = true
		a.in[bi] = append([]absVal(nil), st...)
		a.defsIn[bi] = append([]uint64(nil), defs...)
		return true
	}
	changed := false
	cur := a.in[bi]
	for r := range cur {
		m := meetVal(cur[r], st[r])
		if m != cur[r] {
			cur[r] = m
			changed = true
		}
	}
	cd := a.defsIn[bi]
	for w := range cd {
		m := cd[w] & defs[w]
		if m != cd[w] {
			cd[w] = m
			changed = true
		}
	}
	return changed
}
