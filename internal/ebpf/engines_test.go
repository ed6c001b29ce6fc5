package ebpf

import (
	"fmt"
	"strings"
	"testing"
)

// Differential tests between the production interpreter and a naive
// reference stepper. The interpreter walks the pre-decoded instruction
// cache (decode.go) and shares its operation semantics through
// aluOp64/aluOp32/jumpTaken; the reference below steps the raw
// instruction slice, re-extracts every bit field per step and spells
// out each operation from the ISA without sharing code with vm.go. The
// helpers are the VM's own: they are the environment, not the engine.
//
// Every observable of a run must agree across three runs in identical
// environments — the reference, Run, and InterpBranches: R0, the error
// text, the conditional-branch trace, the map contents, the helper call
// sequence (via a recording kfunc, a counting clock and the trace log)
// and the Runs counter.

// kfuncProbe is a test-only kfunc id used to record call sequences.
const kfuncProbe = KfuncBase + 77

// engineEnv is one VM prepared for a differential run: a registered
// hash map, a deterministic counting clock, a recording kfunc and a
// recording trace log.
type engineEnv struct {
	vm     *VM
	fd     int32
	m      *Map
	calls  []uint64 // kfuncProbe's observed first arguments
	ticks  uint64   // counting clock state
	printk []string
}

func newEngineEnv(t testing.TB) *engineEnv {
	t.Helper()
	e := &engineEnv{vm: NewVM()}
	e.m = MustNewMap(MapTypeHash, "diff", 1024)
	e.fd = e.vm.RegisterMap(e.m)
	e.vm.SetClock(func() uint64 {
		e.ticks++
		return e.ticks * 1000
	})
	e.vm.TraceLog = func(msg string) { e.printk = append(e.printk, msg) }
	e.vm.MustRegisterHelper(kfuncProbe, "probe", func(ctx *CallContext, args [5]uint64) (uint64, error) {
		e.calls = append(e.calls, args[0])
		return args[0]*3 + uint64(len(e.calls)), nil
	})
	return e
}

func (e *engineEnv) load(t testing.TB, insns []Instruction) *Program {
	t.Helper()
	p, err := e.vm.Load("diff", insns)
	if err != nil {
		t.Fatalf("verifier rejected the test program: %v\n%s", err, Disassemble(insns))
	}
	return p
}

// branchEdge is one evaluated conditional jump.
type branchEdge struct {
	pc    int
	taken bool
}

// refRun executes p's raw instruction text on the reference stepper.
// Error texts follow the interpreter's format so the two compare
// verbatim.
func refRun(p *Program, args ...uint64) (uint64, []branchEdge, error) {
	var regs [numRegisters]uint64
	copy(regs[R1:], args)
	regs[R10] = stackTop
	var stack [StackSize]byte
	ctx := &CallContext{VM: p.vm, Prog: p, stack: stack[:]}
	var branches []branchEdge
	insns := p.insns

	// mem resolves a stack access of n bytes at addr to a frame index.
	mem := func(pc int, addr uint64, n int) (int, error) {
		lo := stackTop - StackSize
		if addr < lo || addr+uint64(n) > stackTop {
			return 0, fmt.Errorf("ebpf: %s @%d: ebpf: stack access out of bounds: addr=%#x size=%d",
				p.Name, pc, addr, n)
		}
		return int(addr - lo), nil
	}

	pc := 0
	for steps := 0; ; steps++ {
		if steps >= InsnBudget {
			return 0, branches, fmt.Errorf("ebpf: %s: instruction budget exceeded", p.Name)
		}
		in := insns[pc]
		class, op := in.Op&0x07, in.Op&0xf0
		src := uint64(int64(in.Imm))
		if in.Op&0x08 != 0 {
			src = regs[in.Src]
		}
		width := 8 // SizeDW
		switch in.Op & 0x18 {
		case SizeB:
			width = 1
		case SizeH:
			width = 2
		case SizeW:
			width = 4
		}

		switch class {
		case ClassALU64:
			regs[in.Dst] = refALU(op, regs[in.Dst], src, false)
			pc++
		case ClassALU:
			regs[in.Dst] = refALU(op, regs[in.Dst], src, true)
			pc++
		case ClassLD: // lddw: low word here, high word in the next slot
			regs[in.Dst] = uint64(uint32(in.Imm)) | uint64(uint32(insns[pc+1].Imm))<<32
			pc += 2
		case ClassLDX:
			i, err := mem(pc, regs[in.Src]+uint64(int64(in.Off)), width)
			if err != nil {
				return 0, branches, err
			}
			var v uint64
			for k := width - 1; k >= 0; k-- {
				v = v<<8 | uint64(stack[i+k])
			}
			regs[in.Dst] = v
			pc++
		case ClassST, ClassSTX:
			i, err := mem(pc, regs[in.Dst]+uint64(int64(in.Off)), width)
			if err != nil {
				return 0, branches, err
			}
			v := uint64(int64(in.Imm))
			if class == ClassSTX {
				v = regs[in.Src]
			}
			for k := 0; k < width; k++ {
				stack[i+k] = byte(v >> (8 * k))
			}
			pc++
		case ClassJMP, ClassJMP32:
			switch {
			case op == OpExit:
				return regs[R0], branches, nil
			case op == OpCall:
				h, ok := p.vm.Helper(in.Imm)
				if !ok {
					return 0, branches, fmt.Errorf("ebpf: %s @%d: unknown helper %d", p.Name, pc, in.Imm)
				}
				r0, err := h.Fn(ctx, [5]uint64{regs[R1], regs[R2], regs[R3], regs[R4], regs[R5]})
				if err != nil {
					return 0, branches, fmt.Errorf("ebpf: %s @%d: helper %s: %w", p.Name, pc, h.Name, err)
				}
				regs[R0] = r0
				for r := R1; r <= R5; r++ {
					regs[r] = poison
				}
				pc++
			case op == OpJa:
				pc += 1 + int(in.Off)
			default:
				taken := refCond(op, regs[in.Dst], src, class == ClassJMP32)
				branches = append(branches, branchEdge{pc, taken})
				if taken {
					pc += 1 + int(in.Off)
				} else {
					pc++
				}
			}
		default:
			return 0, branches, fmt.Errorf("ebpf: %s @%d: unsupported instruction %s", p.Name, pc, in)
		}
	}
}

// refALU is one ALU operation. 32-bit forms operate on the low words
// and zero-extend the result; shifts mask the count to the width.
func refALU(op uint8, dst, src uint64, alu32 bool) uint64 {
	shift := src & 63
	if alu32 {
		dst, src, shift = uint64(uint32(dst)), uint64(uint32(src)), src&31
	}
	r := dst // mod by zero leaves dst unchanged
	switch op {
	case OpAdd:
		r = dst + src
	case OpSub:
		r = dst - src
	case OpMul:
		r = dst * src
	case OpDiv:
		r = 0 // div by zero yields zero
		if src != 0 {
			r = dst / src
		}
	case OpMod:
		if src != 0 {
			r = dst % src
		}
	case OpOr:
		r = dst | src
	case OpAnd:
		r = dst & src
	case OpXor:
		r = dst ^ src
	case OpLsh:
		r = dst << shift
	case OpRsh:
		r = dst >> shift
	case OpArsh:
		if alu32 {
			r = uint64(uint32(int32(uint32(dst)) >> shift))
		} else {
			r = uint64(int64(dst) >> shift)
		}
	case OpNeg:
		r = -dst
	case OpMov:
		r = src
	}
	if alu32 {
		r = uint64(uint32(r))
	}
	return r
}

// refCond evaluates a conditional jump. JMP32 compares the low words:
// as unsigned 32-bit values for the unsigned ops, as int32 for the
// signed ones.
func refCond(op uint8, dst, src uint64, jmp32 bool) bool {
	sd, ss := int64(dst), int64(src)
	if jmp32 {
		dst, src = uint64(uint32(dst)), uint64(uint32(src))
		sd, ss = int64(int32(uint32(dst))), int64(int32(uint32(src)))
	}
	switch op {
	case OpJeq:
		return dst == src
	case OpJne:
		return dst != src
	case OpJgt:
		return dst > src
	case OpJge:
		return dst >= src
	case OpJlt:
		return dst < src
	case OpJle:
		return dst <= src
	case OpJset:
		return dst&src != 0
	case OpJsgt:
		return sd > ss
	case OpJsge:
		return sd >= ss
	case OpJslt:
		return sd < ss
	case OpJsle:
		return sd <= ss
	}
	panic(fmt.Sprintf("refCond: op %#x", op))
}

// runBoth loads insns into three identical environments, executes it on
// the reference stepper, via Run and via InterpBranches, and fails the
// test on any observable difference. It returns the common R0/err pair.
func runBoth(t testing.TB, insns []Instruction, args ...uint64) (uint64, error) {
	t.Helper()
	re, ie, be := newEngineEnv(t), newEngineEnv(t), newEngineEnv(t)
	rp, ip, bp := re.load(t, insns), ie.load(t, insns), be.load(t, insns)

	rr0, rBranches, rErr := refRun(rp, args...)
	ir0, iErr := ip.Run(nil, args...)
	var bBranches []branchEdge
	br0, bErr := bp.InterpBranches(nil, func(pc int, taken bool) {
		bBranches = append(bBranches, branchEdge{pc, taken})
	}, args...)

	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	if errText(rErr) != errText(iErr) || errText(rErr) != errText(bErr) {
		t.Fatalf("error disagreement:\n  ref:      %v\n  run:      %v\n  branches: %v\n%s",
			rErr, iErr, bErr, Disassemble(insns))
	}
	if rErr == nil && (rr0 != ir0 || rr0 != br0) {
		t.Fatalf("R0 disagreement: ref=%#x run=%#x branches=%#x\n%s", rr0, ir0, br0, Disassemble(insns))
	}
	if fmt.Sprint(rBranches) != fmt.Sprint(bBranches) {
		t.Fatalf("branch trace disagreement:\n  ref:      %v\n  branches: %v\n%s",
			rBranches, bBranches, Disassemble(insns))
	}
	wantRuns := int64(1)
	if rErr != nil {
		wantRuns = 0
	}
	if ip.Runs() != wantRuns {
		t.Fatalf("Runs = %d after one run with err=%v, want %d", ip.Runs(), rErr, wantRuns)
	}
	for _, e := range []struct {
		name string
		env  *engineEnv
	}{{"run", ie}, {"branches", be}} {
		if re.ticks != e.env.ticks {
			t.Fatalf("clock call count disagreement: ref=%d %s=%d", re.ticks, e.name, e.env.ticks)
		}
		if fmt.Sprint(re.calls) != fmt.Sprint(e.env.calls) {
			t.Fatalf("kfunc call sequence disagreement:\n  ref: %v\n  %s: %v", re.calls, e.name, e.env.calls)
		}
		if fmt.Sprint(re.printk) != fmt.Sprint(e.env.printk) {
			t.Fatalf("trace log disagreement:\n  ref: %q\n  %s: %q", re.printk, e.name, e.env.printk)
		}
		if rm, em := re.m.Entries(), e.env.m.Entries(); fmt.Sprint(rm) != fmt.Sprint(em) {
			t.Fatalf("map state disagreement:\n  ref: %v\n  %s: %v", rm, e.name, em)
		}
	}
	return rr0, rErr
}

// TestEnginesAgreeAllOpcodes asserts that every opcode the verifier
// accepts produces identical results on the interpreter and the
// reference stepper: each table entry is a minimal verifiable program
// exercising one (class, op, operand-mode) combination.
func TestEnginesAgreeAllOpcodes(t *testing.T) {
	// Operand values chosen to expose sign-extension, truncation and
	// shift-masking differences: a negative 32-bit pattern, a value
	// with high bits set, and a small positive.
	const a, b = 0xffff_fff0_8000_0011, 7

	type alu struct {
		name string
		op   uint8
	}
	alus := []alu{
		{"add", OpAdd}, {"sub", OpSub}, {"mul", OpMul}, {"div", OpDiv},
		{"or", OpOr}, {"and", OpAnd}, {"lsh", OpLsh}, {"rsh", OpRsh},
		{"mod", OpMod}, {"xor", OpXor}, {"mov", OpMov}, {"arsh", OpArsh},
	}
	for _, cls := range []struct {
		name  string
		class uint8
	}{{"alu64", ClassALU64}, {"alu32", ClassALU}} {
		for _, op := range alus {
			for _, src := range []struct {
				name string
				bit  uint8
			}{{"imm", SrcK}, {"reg", SrcX}} {
				insns := []Instruction{
					{Op: ClassALU64 | OpMov | SrcK, Dst: R1, Imm: 0x11}, // overwritten by args below
					{Op: cls.class | op.op | src.bit, Dst: R1, Src: R2, Imm: 13},
					{Op: ClassALU64 | OpMov | SrcX, Dst: R0, Src: R1},
					{Op: ClassJMP | OpExit},
				}
				t.Run(cls.name+"/"+op.name+"/"+src.name, func(t *testing.T) {
					runBoth(t, insns, a, b)
					runBoth(t, insns, b, a)
					runBoth(t, insns, a, 0) // div/mod by a zero register
				})
			}
		}
		// neg has no source operand.
		insns := []Instruction{
			{Op: cls.class | OpNeg, Dst: R1},
			{Op: ClassALU64 | OpMov | SrcX, Dst: R0, Src: R1},
			{Op: ClassJMP | OpExit},
		}
		t.Run(cls.name+"/neg", func(t *testing.T) {
			runBoth(t, insns, a)
			runBoth(t, insns, b)
		})
	}

	jmps := []alu{
		{"jeq", OpJeq}, {"jgt", OpJgt}, {"jge", OpJge}, {"jset", OpJset},
		{"jne", OpJne}, {"jsgt", OpJsgt}, {"jsge", OpJsge}, {"jlt", OpJlt},
		{"jle", OpJle}, {"jslt", OpJslt}, {"jsle", OpJsle},
	}
	for _, cls := range []struct {
		name  string
		class uint8
	}{{"jmp", ClassJMP}, {"jmp32", ClassJMP32}} {
		for _, op := range jmps {
			for _, src := range []struct {
				name string
				bit  uint8
			}{{"imm", SrcK}, {"reg", SrcX}} {
				insns := []Instruction{
					{Op: cls.class | op.op | src.bit, Dst: R1, Src: R2, Imm: -5, Off: 2},
					{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 1},
					{Op: ClassJMP | OpExit},
					{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 2},
					{Op: ClassJMP | OpExit},
				}
				t.Run(cls.name+"/"+op.name+"/"+src.name, func(t *testing.T) {
					for _, pair := range [][2]uint64{
						{a, b}, {b, a}, {a, a},
						{0xffff_ffff, 0x1_0000_0001}, // equal low words, unequal values
						{0x8000_0000, 5},             // negative as int32, positive as int64
						{0xffff_ffff_ffff_fffb, 0},   // equals the sign-extended immediate
					} {
						runBoth(t, insns, pair[0], pair[1])
					}
				})
			}
		}
	}

	t.Run("ja", func(t *testing.T) {
		insns := []Instruction{
			{Op: ClassJMP | OpJa, Off: 2},
			{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 1},
			{Op: ClassJMP | OpExit},
			{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 2},
			{Op: ClassJMP | OpExit},
		}
		if r0, _ := runBoth(t, insns); r0 != 2 {
			t.Fatalf("ja: got %d, want 2", r0)
		}
	})

	t.Run("lddw", func(t *testing.T) {
		insns := []Instruction{
			{Op: OpLdImm64, Dst: R0, Imm: int32(-1)},
			{Imm: int32(0x7eadbeef)},
			{Op: ClassJMP | OpExit},
		}
		if r0, _ := runBoth(t, insns); r0 != 0x7eadbeef_ffffffff {
			t.Fatalf("lddw reassembly: got %#x", r0)
		}
	})

	// Memory: every access width, fp-relative (static form) and via a
	// copied frame pointer (dynamic form).
	for _, sz := range []struct {
		name string
		bits uint8
	}{{"b", SizeB}, {"h", SizeH}, {"w", SizeW}, {"dw", SizeDW}} {
		t.Run("mem/fp/"+sz.name, func(t *testing.T) {
			insns := []Instruction{
				{Op: ClassSTX | ModeMEM | sz.bits, Dst: R10, Src: R1, Off: -16},
				{Op: ClassST | ModeMEM | sz.bits, Dst: R10, Off: -32, Imm: -2},
				{Op: ClassLDX | ModeMEM | sz.bits, Dst: R0, Src: R10, Off: -16},
				{Op: ClassLDX | ModeMEM | sz.bits, Dst: R3, Src: R10, Off: -32},
				{Op: ClassALU64 | OpAdd | SrcX, Dst: R0, Src: R3},
				{Op: ClassJMP | OpExit},
			}
			runBoth(t, insns, a)
		})
		t.Run("mem/dyn/"+sz.name, func(t *testing.T) {
			insns := []Instruction{
				{Op: ClassALU64 | OpMov | SrcX, Dst: R2, Src: R10},
				{Op: ClassALU64 | OpAdd | SrcK, Dst: R2, Imm: -64},
				{Op: ClassSTX | ModeMEM | sz.bits, Dst: R2, Src: R1, Off: 8},
				{Op: ClassLDX | ModeMEM | sz.bits, Dst: R0, Src: R2, Off: 8},
				{Op: ClassJMP | OpExit},
			}
			runBoth(t, insns, a)
		})
	}

	t.Run("call", func(t *testing.T) {
		insns := []Instruction{
			{Op: ClassALU64 | OpMov | SrcX, Dst: R1, Src: R2},
			{Op: ClassJMP | OpCall, Imm: kfuncProbe},
			{Op: ClassJMP | OpExit},
		}
		if r0, _ := runBoth(t, insns, 1, 42); r0 != 42*3+1 {
			t.Fatalf("kfunc return: got %d, want %d", r0, 42*3+1)
		}
	})
}

// TestEnginesAgreeHelperIdioms covers the capture/prefetch program
// shapes: map-helper preambles, kfunc calls with register arguments and
// the clock and trace helpers.
func TestEnginesAgreeHelperIdioms(t *testing.T) {
	t.Run("mapUpdateLookup", func(t *testing.T) {
		// runBoth environments register the map under the same fd.
		fd := newEngineEnv(t).fd
		insns := mapHelperProgram(fd)
		runBoth(t, insns, 3, 99)
		runBoth(t, insns, 0, 0)
	})
	t.Run("captureShaped", func(t *testing.T) {
		insns := benchProgram()
		runBoth(t, insns, 1, 17)
		runBoth(t, insns, 2, 17) // filter miss path
	})
	t.Run("ktimeAndPrintk", func(t *testing.T) {
		b := NewBuilder()
		b.Call(HelperKtimeGetNS).
			Mov64Reg(R6, R0).
			Mov64Reg(R1, R6).
			Call(HelperTracePrintk).
			Call(HelperKtimeGetNS).
			Add64Reg(R0, R6).
			Exit()
		if r0, _ := runBoth(t, b.MustProgram()); r0 != 1000+2000 {
			t.Fatalf("ktime sum: got %d, want 3000", r0)
		}
	})
	t.Run("kfuncRegArg", func(t *testing.T) {
		// Prefetch-shaped: the kfunc argument is a register copy, not a
		// constant.
		b := NewBuilder()
		b.Mov64Reg(R6, R1).
			Add64Imm(R6, 5).
			Mov64Reg(R1, R6).
			Raw(Instruction{Op: ClassJMP | OpCall, Imm: kfuncProbe}).
			Exit()
		runBoth(t, b.MustProgram(), 11)
	})
}

// TestEnginesAgreeBudgetExhaustion: an infinite loop must abort with
// the identical instruction-budget error on every engine.
func TestEnginesAgreeBudgetExhaustion(t *testing.T) {
	insns := []Instruction{
		{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 0},
		{Op: ClassALU64 | OpAdd | SrcK, Dst: R0, Imm: 1},
		{Op: ClassJMP | OpJa, Off: -2},
		{Op: ClassJMP | OpExit},
	}
	_, err := runBoth(t, insns)
	if err == nil || !strings.Contains(err.Error(), "instruction budget") {
		t.Fatalf("want budget abort, got %v", err)
	}
}

// TestEnginesAgreeNearBudget runs a loop whose instruction count lands
// just under InsnBudget and exits normally: the budget check must count
// exactly one step per instruction, the lddw pair included.
func TestEnginesAgreeNearBudget(t *testing.T) {
	// sum(1..N) with 4 instructions per iteration; N chosen so the
	// total lands three steps short of the budget.
	n := int32(InsnBudget/4 - 2)
	insns := []Instruction{
		{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 0},
		{Op: ClassALU64 | OpMov | SrcK, Dst: R2, Imm: 0},
		{Op: OpLdImm64, Dst: R1, Imm: n}, {}, // one step for both slots
		{Op: ClassJMP | OpJge | SrcX, Dst: R2, Src: R1, Off: 3},
		{Op: ClassALU64 | OpAdd | SrcK, Dst: R2, Imm: 1},
		{Op: ClassALU64 | OpAdd | SrcX, Dst: R0, Src: R2},
		{Op: ClassJMP | OpJa, Off: -4},
		{Op: ClassJMP | OpExit},
	}
	want := uint64(n) * uint64(n+1) / 2
	if r0, err := runBoth(t, insns); err != nil || r0 != want {
		t.Fatalf("near-budget loop: got %d, %v; want %d", r0, err, want)
	}
}
