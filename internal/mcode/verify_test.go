package mcode_test

// Verifier tests: the full paper corpus must pass static verification
// on every µarch (the verifier's acceptance contract is "everything
// Lower emits from ir.Verify-passing IR"), and the negative corpus pins
// one deliberately malformed module to each rule's sentinel. The
// dataflow facts are checked against hand-computable programs; their
// global soundness (elided checks bit-identical to the interp oracle)
// rides the engine differential suites.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"threechains/internal/core"
	"threechains/internal/ir"
	"threechains/internal/isa"
	"threechains/internal/mcode"
	"threechains/internal/minilang"
	"threechains/internal/passes"
)

func TestVerifyAcceptsLoweredCorpora(t *testing.T) {
	ml, err := minilang.Compile("mlverify", diffMinilangSrc)
	if err != nil {
		t.Fatal(err)
	}
	mods := map[string]*ir.Module{
		"tsi":        core.BuildTSI(),
		"chaser":     core.BuildChaser(),
		"propagator": core.BuildPropagator(),
		"minilang":   ml,
	}
	for _, march := range []*isa.MicroArch{isa.XeonE5(), isa.A64FX(), isa.CortexA72()} {
		for name, mod := range mods {
			cm, err := mcode.Lower(mod, march)
			if err != nil {
				t.Fatalf("%s/%s: lower: %v", march.Name, name, err)
			}
			facts, err := mcode.Verify(cm)
			if err != nil {
				t.Fatalf("%s/%s: verify rejected corpus module: %v", march.Name, name, err)
			}
			if facts == nil || len(facts.Funcs) != len(cm.Funcs) {
				t.Fatalf("%s/%s: missing facts", march.Name, name)
			}
			for i, ff := range facts.Funcs {
				if ff == nil {
					t.Fatalf("%s/%s: nil facts for %s", march.Name, name, cm.Funcs[i].Name)
				}
			}
			// Memoized: a second call returns the identical result.
			again, err := mcode.Verify(cm)
			if err != nil || again != facts {
				t.Fatalf("%s/%s: memo broken: %p vs %p (%v)", march.Name, name, facts, again, err)
			}
		}
	}
}

// okModule returns a minimal valid one-function module the negative
// cases mutate.
func okModule() *mcode.CompiledModule {
	return &mcode.CompiledModule{
		Name: "neg",
		Funcs: []*mcode.Program{{
			Name: "f", Params: 1, NumRegs: 4,
			Code: []mcode.MInstr{
				{Op: mcode.MConst, Dst: 1, Imm: 7},
				{Op: mcode.MAdd, Dst: 2, A: 0, B: 1},
				{Op: mcode.MRet, A: 2},
			},
		}},
		GOT: []mcode.GOTEntry{{Sym: "data", Kind: mcode.GOTData}},
	}
}

// negCase is one malformed module of the negative corpus: mut breaks
// okModule so that exactly rule rejects it.
type negCase struct {
	name string
	rule error
	mut  func(cm *mcode.CompiledModule)
}

func negativeCorpus() []negCase {
	noReg := int32(ir.NoReg)
	return []negCase{
		{"nil-function", mcode.ErrVerifyModule, func(cm *mcode.CompiledModule) {
			cm.Funcs = append(cm.Funcs, nil)
		}},
		{"oversized-frame", mcode.ErrVerifyModule, func(cm *mcode.CompiledModule) {
			cm.Funcs[0].NumRegs = 1 << 20
		}},
		{"unknown-opcode", mcode.ErrVerifyOpcode, func(cm *mcode.CompiledModule) {
			cm.Funcs[0].Code[1].Op = mcode.MOp(200)
		}},
		{"register-out-of-frame", mcode.ErrVerifyRegister, func(cm *mcode.CompiledModule) {
			cm.Funcs[0].Code[1].B = 4
		}},
		{"negative-register", mcode.ErrVerifyRegister, func(cm *mcode.CompiledModule) {
			cm.Funcs[0].Code[1].Dst = -3
		}},
		{"arg-window-outside-frame", mcode.ErrVerifyOperand, func(cm *mcode.CompiledModule) {
			cm.GOT[0].Kind = mcode.GOTFunc
			cm.Funcs[0].Code[1] = mcode.MInstr{
				Op: mcode.MCallExt, Target: 0, Dst: noReg, ArgBase: 2, ArgCount: 3,
			}
		}},
		{"branch-off-code", mcode.ErrVerifyBranch, func(cm *mcode.CompiledModule) {
			cm.Funcs[0].Code[1] = mcode.MInstr{Op: mcode.MJmp, Target: 9}
		}},
		{"negative-else-target", mcode.ErrVerifyBranch, func(cm *mcode.CompiledModule) {
			cm.Funcs[0].Code[1] = mcode.MInstr{Op: mcode.MJnz, A: 0, Target: 0, Imm: -1}
		}},
		{"fallthrough-past-end", mcode.ErrVerifyBranch, func(cm *mcode.CompiledModule) {
			cm.Funcs[0].Code = cm.Funcs[0].Code[:2]
		}},
		{"callee-out-of-module", mcode.ErrVerifyCall, func(cm *mcode.CompiledModule) {
			cm.Funcs[0].Code[1] = mcode.MInstr{
				Op: mcode.MCallLocal, Target: 5, Dst: noReg, ArgBase: 0, ArgCount: 0,
			}
		}},
		{"call-arity-mismatch", mcode.ErrVerifyCall, func(cm *mcode.CompiledModule) {
			cm.Funcs[0].Code[1] = mcode.MInstr{
				Op: mcode.MCallLocal, Target: 0, Dst: noReg, ArgBase: 0, ArgCount: 0,
			}
		}},
		{"negative-got-slot", mcode.ErrVerifyGOT, func(cm *mcode.CompiledModule) {
			cm.Funcs[0].Code[1] = mcode.MInstr{Op: mcode.MGlobal, Dst: 2, Target: -1}
		}},
		{"call-through-data-slot", mcode.ErrVerifyGOT, func(cm *mcode.CompiledModule) {
			cm.Funcs[0].Code[1] = mcode.MInstr{
				Op: mcode.MCallExt, Target: 0, Dst: noReg, ArgBase: 0, ArgCount: 0,
			}
		}},
		{"sizeless-load", mcode.ErrVerifyType, func(cm *mcode.CompiledModule) {
			cm.Funcs[0].Code[1] = mcode.MInstr{Op: mcode.MLoad, Ty: ir.Void, Dst: 2, A: 0}
		}},
		{"negative-alloca", mcode.ErrVerifyAlloca, func(cm *mcode.CompiledModule) {
			cm.Funcs[0].Code[1] = mcode.MInstr{Op: mcode.MAlloca, Dst: 2, Imm: -8}
		}},
		{"vbinop-shape", mcode.ErrVerifyVector, func(cm *mcode.CompiledModule) {
			cm.Funcs[0].Code[1] = mcode.MInstr{
				Op: mcode.MVBinOp, A: 0, B: 1, C: 2, ArgBase: 3, ArgCount: 2,
			}
		}},
	}
}

func TestVerifyNegativeCorpus(t *testing.T) {
	for _, tc := range negativeCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			cm := okModule()
			tc.mut(cm)
			facts, err := mcode.Verify(cm)
			if err == nil {
				t.Fatalf("malformed module verified")
			}
			if facts != nil {
				t.Fatalf("rejection returned facts")
			}
			if !errors.Is(err, tc.rule) {
				t.Fatalf("error %v does not match rule %v", err, tc.rule)
			}
			if !errors.Is(err, mcode.ErrVerify) {
				t.Fatalf("error %v does not match parent ErrVerify", err)
			}
			// Deterministic: the memoized rejection is identical.
			if _, again := mcode.Verify(cm); again == nil || again.Error() != err.Error() {
				t.Fatalf("rejection not deterministic: %v vs %v", err, again)
			}
		})
	}
	// Control: the unmutated base module verifies.
	if _, err := mcode.Verify(okModule()); err != nil {
		t.Fatalf("base module rejected: %v", err)
	}
}

func TestAnalyzeTolerantGivesNilFactsForBadFunc(t *testing.T) {
	cm := okModule()
	// Second function falls past the end — structurally invalid, but the
	// tolerant path must still give facts for the valid one.
	cm.Funcs = append(cm.Funcs, &mcode.Program{
		Name: "bad", NumRegs: 2,
		Code: []mcode.MInstr{{Op: mcode.MConst, Dst: 0, Imm: 1}},
	})
	facts := mcode.Analyze(cm)
	if facts == nil || facts.Func(0) == nil {
		t.Fatalf("no facts for the valid function")
	}
	if facts.Func(1) != nil {
		t.Fatalf("facts produced for a structurally invalid function")
	}
	if _, err := mcode.Verify(cm); err == nil {
		t.Fatalf("strict Verify accepted the invalid function")
	}
}

func TestAnalysisBoundsAndStepFacts(t *testing.T) {
	noReg := int32(ir.NoReg)
	// r1 = alloca 16; store r0 -> [r1+8]; r2 = load [r1+8];
	// r3 = load [r1+16] (out of room); ret r2
	cm := &mcode.CompiledModule{
		Name: "facts",
		Funcs: []*mcode.Program{{
			Name: "f", Params: 1, NumRegs: 5,
			Code: []mcode.MInstr{
				{Op: mcode.MAlloca, Dst: 1, Imm: 16},
				{Op: mcode.MStore, Ty: ir.I64, A: 0, B: 1, Imm: 8},
				{Op: mcode.MLoad, Ty: ir.I64, Dst: 2, A: 1, Imm: 8},
				{Op: mcode.MLoad, Ty: ir.I64, Dst: 3, A: 1, Imm: 16},
				{Op: mcode.MRet, A: 2},
			},
		}},
	}
	facts, err := mcode.Verify(cm)
	if err != nil {
		t.Fatal(err)
	}
	ff := facts.Func(0)
	for pc, want := range []bool{false, true, true, false, false} {
		if got := ff.BoundsProven(int32(pc)); got != want {
			t.Fatalf("BoundsOK[%d] = %v, want %v", pc, got, want)
		}
	}
	// NoFault: the alloca may overflow the stack and the last load is
	// unproven; everything else cannot fault.
	for pc, want := range []bool{false, true, true, false, true} {
		if got := ff.NoFaultAt(int32(pc)); got != want {
			t.Fatalf("NoFault[%d] = %v, want %v", pc, got, want)
		}
	}
	// Straight-line code: exact static step count, 5 instructions.
	if !ff.Bounded() || ff.MinSteps != 5 || ff.MaxSteps != 5 {
		t.Fatalf("step bounds = [%d,%d] bounded=%v, want exactly 5",
			ff.MinSteps, ff.MaxSteps, ff.Bounded())
	}

	// A loop makes the upper bound unbounded but keeps the shortest-path
	// lower bound: r1 = r0; loop: r1 = r1 - 1 (const); jnz r1 -> loop.
	loop := &mcode.CompiledModule{
		Name: "loop",
		Funcs: []*mcode.Program{{
			Name: "g", Params: 1, NumRegs: 3,
			Code: []mcode.MInstr{
				{Op: mcode.MConst, Dst: 1, Imm: 1},
				{Op: mcode.MSub, Dst: 0, A: 0, B: 1},
				{Op: mcode.MJnz, A: 0, Target: 1, Imm: 3},
				{Op: mcode.MRet, A: noReg},
			},
		}},
	}
	lf, err := mcode.Verify(loop)
	if err != nil {
		t.Fatal(err)
	}
	g := lf.Func(0)
	if g.Bounded() {
		t.Fatalf("cyclic function reported bounded")
	}
	// Shortest path: const, sub, jnz (not taken), ret = 4 steps.
	if g.MinSteps != 4 {
		t.Fatalf("loop MinSteps = %d, want 4", g.MinSteps)
	}
}

func TestAnalysisTSIStepsMatchExecution(t *testing.T) {
	cm, err := mcode.Lower(core.BuildTSI(), isa.XeonE5())
	if err != nil {
		t.Fatal(err)
	}
	facts, err := mcode.Verify(cm)
	if err != nil {
		t.Fatal(err)
	}
	ff := facts.Func(cm.FuncIndex("main"))
	if !ff.Bounded() {
		t.Fatalf("TSI main not statically bounded")
	}
	if ff.MinSteps != ff.MaxSteps {
		t.Fatalf("straight-line TSI has min %d != max %d", ff.MinSteps, ff.MaxSteps)
	}
	if ff.MinSteps != int64(len(cm.Funcs[cm.FuncIndex("main")].Code)) {
		t.Fatalf("TSI static steps %d != code length", ff.MinSteps)
	}
}

// offloadKernelSources are the three kernel shapes of the offload-mix
// benchmark workload: a read-only scan, a mutating write-back and a
// heavy one that spins before it writes.
var offloadKernelSources = []string{`function main(payload::Ptr, len::Int, target::Ptr)::Int
    words = load64(payload, 0)
    acc = 0
    i = 0
    while i < words
        acc = acc + load64(target, i * 8)
        i = i + 1
    end
    return acc
end
`, `function main(payload::Ptr, len::Int, target::Ptr)::Int
    old = load64(target, 0)
    store64(target, 0, old + 1)
    words = load64(payload, 0)
    j = 1
    while j < words
        store64(target, j * 8, old + j)
        j = j + 1
    end
    return old + 1
end
`, `function main(payload::Ptr, len::Int, target::Ptr)::Int
    i = 0
    while i < 8192
        i = i + 1
    end
    old = load64(target, 0)
    store64(target, 0, old + 1)
    words = load64(payload, 0)
    j = 1
    while j < words
        store64(target, j * 8, old + j)
        j = j + 1
    end
    return old
end
`}

// deployKernelSource writes a kernel of the cold-deploy benchmark
// workload's family: the payload word folded into an accumulator in
// slot k of the target through random arithmetic, branches, short loops
// and helper calls.
func deployKernelSource(r *rand.Rand, k int) string {
	var sb strings.Builder
	c := func() int64 { return 3 + 2*r.Int63n(1<<20) }
	helper := r.Intn(3) == 0
	if helper {
		fmt.Fprintf(&sb, "function mix(a::Int, b::Int)::Int\n    return a * %d + (b ^ %d)\nend\n\n", c(), c())
	}
	sb.WriteString("function main(payload::Ptr, len::Int, target::Ptr)::Int\n")
	sb.WriteString("    x = load64(payload, 0)\n")
	fmt.Fprintf(&sb, "    acc = load64(target, %d)\n", 8*k)
	for n := 6 + r.Intn(11); n > 0; n-- {
		switch r.Intn(6) {
		case 0:
			fmt.Fprintf(&sb, "    acc = acc * %d + x\n", c())
		case 1:
			fmt.Fprintf(&sb, "    acc = (acc ^ %d) + (x & %d)\n", c(), c())
		case 2:
			fmt.Fprintf(&sb, "    x = x + (acc | %d) - %d\n", c(), c())
		case 3:
			fmt.Fprintf(&sb, "    if (acc & %d) == 0\n        acc = acc + %d\n    else\n        acc = acc - x\n    end\n", 1+r.Intn(7), c())
		case 4:
			fmt.Fprintf(&sb, "    i = 0\n    while i < %d\n        acc = acc * %d + i\n        i = i + 1\n    end\n", 2+r.Intn(7), c())
		default:
			if helper {
				sb.WriteString("    acc = mix(acc, x)\n")
			} else {
				fmt.Fprintf(&sb, "    acc = acc - (x * %d)\n", c())
			}
		}
	}
	fmt.Fprintf(&sb, "    store64(target, %d, acc)\n    return acc\nend\n", 8*k)
	return sb.String()
}

// ifChainSource writes one function of k consecutive if/else blocks over
// a payload word: the code grows linearly in k, and so must the cost of
// verifying it.
func ifChainSource(k int) string {
	var sb strings.Builder
	sb.WriteString("function main(payload::Ptr, len::Int, target::Ptr)::Int\n")
	sb.WriteString("    x = load64(payload, 0)\n    acc = 0\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "    if (x & %d) == 0\n        acc = acc + %d\n    else\n        acc = acc - x\n    end\n", 1+i%7, 2*i+3)
	}
	sb.WriteString("    store64(target, 0, acc)\n    return acc\nend\n")
	return sb.String()
}

// lowerO2 compiles mod the way a receiving node's JIT does: optimized at
// O2, then lowered for march.
func lowerO2(t *testing.T, mod *ir.Module, march *isa.MicroArch) *mcode.CompiledModule {
	t.Helper()
	opt := mod.Clone()
	if err := passes.Optimize(opt, passes.O2); err != nil {
		t.Fatalf("%s: optimize: %v", mod.Name, err)
	}
	cm, err := mcode.Lower(opt, march)
	if err != nil {
		t.Fatalf("%s/%s: lower: %v", mod.Name, march.Name, err)
	}
	return cm
}

// analysisCorpus gathers every module the dense-reference oracle checks:
// the verifier's lowered corpora, the TSI, chaser, offload-mix and
// cold-deploy kernels, the engine fuzz's random programs, an if chain,
// each lowered as is and at O2 on the three paper µarchs, plus the
// negative corpus.
func analysisCorpus(t *testing.T) map[string]*mcode.CompiledModule {
	t.Helper()
	mods := []*ir.Module{core.BuildTSI(), core.BuildChaser(), core.BuildPropagator()}
	compile := func(name, src string) {
		m, err := minilang.Compile(name, src)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, src)
		}
		mods = append(mods, m)
	}
	compile("mlverify", diffMinilangSrc)
	for i, src := range offloadKernelSources {
		compile(fmt.Sprintf("offload%d", i), src)
	}
	dr := rand.New(rand.NewSource(20220907))
	for k := 0; k < 48; k++ {
		compile(fmt.Sprintf("deploy%02d", k), deployKernelSource(dr, k))
	}
	compile("ifchain", ifChainSource(12))
	fr := rand.New(rand.NewSource(0x5eedb10c))
	for id := 0; id < 40; id++ {
		mods = append(mods, randModule(fr, id))
	}

	corpus := make(map[string]*mcode.CompiledModule)
	for _, march := range fuzzMarchs() {
		for _, mod := range mods {
			cm, err := mcode.Lower(mod, march)
			if err != nil {
				t.Fatalf("%s/%s: lower: %v", mod.Name, march.Name, err)
			}
			corpus[mod.Name+"/"+march.Name] = cm
			corpus[mod.Name+"/"+march.Name+"/O2"] = lowerO2(t, mod, march)
		}
	}
	for _, tc := range negativeCorpus() {
		cm := okModule()
		tc.mut(cm)
		corpus["negative/"+tc.name] = cm
	}
	return corpus
}

// TestAnalyzeMatchesDenseReference pins the sparse dataflow to the dense
// reference analysis it replaced: identical FuncFacts — reachability,
// bounds and fault facts, blocks, step bounds and the def-before-use
// lint — for every function of the corpus, so the engines' check
// elision and the planner's static bounds cannot move.
func TestAnalyzeMatchesDenseReference(t *testing.T) {
	corpus := analysisCorpus(t)
	funcs, proven := 0, 0
	for name, cm := range corpus {
		want := mcode.DenseAnalyze(cm)
		got := mcode.Analyze(cm)
		if len(got.Funcs) != len(want.Funcs) {
			t.Fatalf("%s: %d function facts, reference %d", name, len(got.Funcs), len(want.Funcs))
		}
		for i, w := range want.Funcs {
			if g := got.Funcs[i]; !reflect.DeepEqual(g, w) {
				t.Errorf("%s: function %d: %s differ from the dense reference", name, i, factsDiff(g, w))
				continue
			}
			if w != nil {
				funcs++
				for _, ok := range w.BoundsOK {
					if ok {
						proven++
					}
				}
			}
		}
	}
	// Guard against a vacuous corpus: the comparison must have covered
	// many functions and proven facts that depend on cross-block state.
	t.Logf("%d modules, %d functions, %d proven in-bounds accesses", len(corpus), funcs, proven)
	if funcs < 600 || proven < 10000 {
		t.Fatalf("corpus too weak: %d functions, %d proven accesses", funcs, proven)
	}
}

// factsDiff names the FuncFacts fields in which g and w differ.
func factsDiff(g, w *mcode.FuncFacts) string {
	if g == nil || w == nil {
		return fmt.Sprintf("presence (%v, reference %v)", g != nil, w != nil)
	}
	gv, wv := reflect.ValueOf(*g), reflect.ValueOf(*w)
	var fields []string
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			fields = append(fields, gv.Type().Field(i).Name)
		}
	}
	return strings.Join(fields, ", ")
}

// TestAnalyzeScalesLinearly pins the verifier's allocation per
// instruction on a function four times longer to within 2x of the
// shorter one's. The dense analysis copied the whole register file per
// block visit, so its cost per instruction grew with the code.
func TestAnalyzeScalesLinearly(t *testing.T) {
	perInstr := func(k int) float64 {
		m, err := minilang.Compile("ifchain", ifChainSource(k))
		if err != nil {
			t.Fatal(err)
		}
		cm := lowerO2(t, m, isa.XeonE5())
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			fresh := &mcode.CompiledModule{Name: cm.Name, Funcs: cm.Funcs, GOT: cm.GOT}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := mcode.Verify(fresh); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			b := float64(after.TotalAlloc-before.TotalAlloc) / float64(cm.NumInstrs())
			if rep == 0 || b < best {
				best = b
			}
		}
		t.Logf("k=%d: %d instructions, %.0f B/instruction", k, cm.NumInstrs(), best)
		return best
	}
	small, large := perInstr(25), perInstr(100)
	if large > 2*small {
		t.Fatalf("verify allocates %.0f B/instruction at k=100 against %.0f at k=25 (%.1fx): not linear",
			large, small, large/small)
	}
}
