package ebpf

import (
	"testing"
	"testing/quick"
)

// runProg assembles, loads and runs a program on a fresh VM.
func runProg(t *testing.T, build func(b *Builder), args ...uint64) uint64 {
	t.Helper()
	vm := NewVM()
	return runProgOn(t, vm, build, args...)
}

func runProgOn(t *testing.T, vm *VM, build func(b *Builder), args ...uint64) uint64 {
	t.Helper()
	b := NewBuilder()
	build(b)
	insns, err := b.Program()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	prog, err := vm.Load("test", insns)
	if err != nil {
		t.Fatalf("load: %v\n%s", err, Disassemble(insns))
	}
	r0, err := prog.Run(nil, args...)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, Disassemble(insns))
	}
	return r0
}

func TestReturnConstant(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.Mov64Imm(R0, 42).Exit()
	})
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}

func TestReturnArgument(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.Mov64Reg(R0, R1).Exit()
	}, 1234)
	if got != 1234 {
		t.Fatalf("got %d, want 1234", got)
	}
}

func TestArithmetic(t *testing.T) {
	// r0 = ((a + b) * 3 - 5) / 2
	got := runProg(t, func(b *Builder) {
		b.Mov64Reg(R0, R1).
			Add64Reg(R0, R2).
			Mul64Imm(R0, 3).
			Sub64Imm(R0, 5).
			Div64Imm(R0, 2).
			Exit()
	}, 10, 20)
	if want := uint64(((10+20)*3 - 5) / 2); got != want {
		t.Fatalf("got %d, want %d", got, want)
	}
}

func TestBitOps(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.Mov64Reg(R0, R1).
			And64Imm(R0, 0xff).
			Or64Imm(R0, 0x100).
			Lsh64Imm(R0, 4).
			Rsh64Imm(R0, 2).
			Exit()
	}, 0xabcd)
	want := ((uint64(0xabcd)&0xff | 0x100) << 4) >> 2
	if got != want {
		t.Fatalf("got %#x, want %#x", got, want)
	}
}

func TestLdImm64(t *testing.T) {
	const v = uint64(0xdead_beef_cafe_f00d)
	got := runProg(t, func(b *Builder) {
		b.LdImm64(R0, v).Exit()
	})
	if got != v {
		t.Fatalf("got %#x, want %#x", got, v)
	}
}

func TestNegSignExtension(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.Mov64Imm(R0, 5).Neg64(R0).Exit()
	})
	if int64(got) != -5 {
		t.Fatalf("got %d, want -5", int64(got))
	}
}

func TestMovImmSignExtends(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.Mov64Imm(R0, -1).Exit()
	})
	if got != ^uint64(0) {
		t.Fatalf("got %#x, want all-ones", got)
	}
}

func TestDivByZeroYieldsZero(t *testing.T) {
	// Division by a zero *register* is a runtime case the kernel
	// defines as 0 (immediates are rejected by the verifier).
	got := runProg(t, func(b *Builder) {
		b.Mov64Imm(R0, 100).
			Mov64Imm(R2, 0).
			Div64Reg(R0, R2).
			Exit()
	})
	if got != 0 {
		t.Fatalf("got %d, want 0", got)
	}
}

func TestStackStoreLoad(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.Mov64Imm(R2, 777).
			StxDW(R10, -8, R2).
			LdxDW(R0, R10, -8).
			Exit()
	})
	if got != 777 {
		t.Fatalf("got %d, want 777", got)
	}
}

func TestStackStImm(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.StDWImm(R10, -16, 4096).
			LdxDW(R0, R10, -16).
			Exit()
	})
	if got != 4096 {
		t.Fatalf("got %d, want 4096", got)
	}
}

func TestStackPointerArithmetic(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.Mov64Reg(R6, R10).
			Add64Imm(R6, -32).
			Mov64Imm(R2, 9).
			StxDW(R6, 8, R2). // fp-24
			LdxDW(R0, R10, -24).
			Exit()
	})
	if got != 9 {
		t.Fatalf("got %d, want 9", got)
	}
}

func TestConditionalJump(t *testing.T) {
	abs := func(x int64) uint64 {
		return runProg(t, func(b *Builder) {
			b.Mov64Reg(R0, R1).
				JmpImm(OpJsge, R0, 0, "done").
				Neg64(R0).
				Label("done").
				Exit()
		}, uint64(x))
	}
	if got := abs(-7); got != 7 {
		t.Fatalf("abs(-7) = %d", got)
	}
	if got := abs(7); got != 7 {
		t.Fatalf("abs(7) = %d", got)
	}
}

func TestJumpRegisterComparisons(t *testing.T) {
	max := func(a, b uint64) uint64 {
		return runProg(t, func(bl *Builder) {
			bl.Mov64Reg(R0, R1).
				JmpReg(OpJge, R1, R2, "done").
				Mov64Reg(R0, R2).
				Label("done").
				Exit()
		}, a, b)
	}
	if got := max(3, 9); got != 9 {
		t.Fatalf("max(3,9) = %d", got)
	}
	if got := max(9, 3); got != 9 {
		t.Fatalf("max(9,3) = %d", got)
	}
	if err := quick.Check(func(a, b uint64) bool {
		want := a
		if b > a {
			want = b
		}
		return max(a, b) == want
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestJset(t *testing.T) {
	tst := func(v uint64) uint64 {
		return runProg(t, func(b *Builder) {
			b.Mov64Imm(R0, 0).
				JmpImm(OpJset, R1, 0x8, "bitset").
				Exit().
				Label("bitset").
				Mov64Imm(R0, 1).
				Exit()
		}, v)
	}
	if tst(0xf) != 1 || tst(0x7) != 0 {
		t.Fatal("jset misbehaves")
	}
}

func TestUnconditionalJump(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.Mov64Imm(R0, 1).
			Ja("end").
			Mov64Imm(R0, 2). // skipped
			Label("end").
			Exit()
	})
	if got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
}

func TestAlu32ZeroesUpperHalf(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.LdImm64(R0, 0xffff_ffff_ffff_ffff).
			Raw(Instruction{Op: ClassALU | OpAdd | SrcK, Dst: R0, Imm: 1}).
			Exit()
	})
	if got != 0 {
		t.Fatalf("got %#x, want 0 (32-bit wrap zero-extends)", got)
	}
}

func TestJmp32ComparesLow32(t *testing.T) {
	// dst = 0x1_0000_0005: 64-bit compare vs 5 differs from 32-bit.
	prog := func(use32 bool) uint64 {
		return runProg(t, func(b *Builder) {
			b.LdImm64(R6, 0x1_0000_0005)
			b.Mov64Imm(R0, 0)
			if use32 {
				b.Jmp32Imm(OpJeq, R6, 5, "eq")
			} else {
				b.JmpImm(OpJeq, R6, 5, "eq")
			}
			b.Exit()
			b.Label("eq")
			b.Mov64Imm(R0, 1)
			b.Exit()
		})
	}
	if prog(false) != 0 {
		t.Fatal("64-bit jeq matched across high bits")
	}
	if prog(true) != 1 {
		t.Fatal("jmp32 jeq ignored low 32 bits")
	}
}

func TestJmp32SignedUsesInt32(t *testing.T) {
	// low 32 bits = 0xFFFFFFFF = -1 as int32: jslt32 vs 0 must take.
	got := runProg(t, func(b *Builder) {
		b.LdImm64(R6, 0x7FFF_FFFF_FFFF_FFFF). // int64 positive, int32 -1
							Mov64Imm(R0, 0).
							Jmp32Imm(OpJslt, R6, 0, "neg").
							Exit().
							Label("neg").
							Mov64Imm(R0, 1).
							Exit()
	})
	if got != 1 {
		t.Fatal("jmp32 signed compare did not use int32 semantics")
	}
}

func TestJmp32UnsignedOrderPreserved(t *testing.T) {
	if err := quick.Check(func(a, b uint32) bool {
		got := runProg(t, func(bl *Builder) {
			bl.Mov64Reg(R6, R1).
				Mov64Reg(R7, R2).
				Mov64Imm(R0, 0).
				Jmp32Reg(OpJgt, R6, R7, "gt").
				Exit().
				Label("gt").
				Mov64Imm(R0, 1).
				Exit()
		}, uint64(a), uint64(b))
		want := uint64(0)
		if a > b {
			want = 1
		}
		return got == want
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAlu32BuilderOps(t *testing.T) {
	got := runProg(t, func(b *Builder) {
		b.LdImm64(R0, 0xFFFF_FFFF_0000_0000).
			Add32Imm(R0, 7).  // zeroes upper half, R0 = 7
			Sub32Imm(R0, 2).  // 5
			And32Imm(R0, 0xf) // 5
		b.Exit()
	})
	if got != 5 {
		t.Fatalf("got %d, want 5 (upper half must be zeroed)", got)
	}
}

func TestVerifierRejectsJmp32Exit(t *testing.T) {
	insns := []Instruction{
		{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 0},
		{Op: ClassJMP32 | OpExit},
	}
	if err := Verify(insns, NewVM()); err == nil {
		t.Fatal("exit in JMP32 class accepted")
	}
}

func TestHelperCall(t *testing.T) {
	vm := NewVM()
	vm.MustRegisterHelper(KfuncBase, "double",
		func(ctx *CallContext, args [5]uint64) (uint64, error) {
			return args[0] * 2, nil
		})
	got := runProgOn(t, vm, func(b *Builder) {
		b.Call(KfuncBase). // R1 already holds arg
					Exit() // R0 = helper result
	}, 21)
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}

func TestMapHelpersRoundTrip(t *testing.T) {
	vm := NewVM()
	m := MustNewMap(MapTypeHash, "ws", 16)
	fd := vm.RegisterMap(m)

	// prog: key=R1 at fp-8; val=R2 at fp-16; update; lookup back into
	// fp-24; return found value.
	got := runProgOn(t, vm, func(b *Builder) {
		b.StxDW(R10, -8, R1).
			StxDW(R10, -16, R2).
			Mov64Imm(R1, fd).
			Mov64Reg(R2, R10).Add64Imm(R2, -8).
			Mov64Reg(R3, R10).Add64Imm(R3, -16).
			Call(HelperMapUpdateElem).
			Mov64Imm(R1, fd).
			Mov64Reg(R2, R10).Add64Imm(R2, -8).
			Mov64Reg(R3, R10).Add64Imm(R3, -24).
			Call(HelperMapLookupElem).
			JmpImm(OpJeq, R0, 1, "hit").
			Mov64Imm(R0, 0).
			Exit().
			Label("hit").
			LdxDW(R0, R10, -24).
			Exit()
	}, 0x1000, 0x2222)
	if got != 0x2222 {
		t.Fatalf("got %#x, want 0x2222", got)
	}
	if v, ok := m.Lookup(0x1000); !ok || v != 0x2222 {
		t.Fatalf("map state: v=%#x ok=%v", v, ok)
	}
}

func TestMapLookupMiss(t *testing.T) {
	vm := NewVM()
	m := MustNewMap(MapTypeHash, "ws", 16)
	fd := vm.RegisterMap(m)
	got := runProgOn(t, vm, func(b *Builder) {
		b.StDWImm(R10, -8, 99).
			Mov64Imm(R1, fd).
			Mov64Reg(R2, R10).Add64Imm(R2, -8).
			Mov64Reg(R3, R10).Add64Imm(R3, -16).
			Call(HelperMapLookupElem).
			Exit()
	})
	if got != 0 {
		t.Fatalf("lookup miss returned %d, want 0", got)
	}
}

func TestKtimeHelper(t *testing.T) {
	vm := NewVM()
	now := uint64(12345)
	vm.SetClock(func() uint64 { return now })
	got := runProgOn(t, vm, func(b *Builder) {
		b.Call(HelperKtimeGetNS).Exit()
	})
	if got != 12345 {
		t.Fatalf("ktime = %d, want 12345", got)
	}
}

func TestTracePrintk(t *testing.T) {
	vm := NewVM()
	var logged string
	vm.TraceLog = func(m string) { logged = m }
	runProgOn(t, vm, func(b *Builder) {
		b.Mov64Imm(R1, 7).Mov64Imm(R2, 8).Mov64Imm(R3, 0).Mov64Imm(R4, 0).Mov64Imm(R5, 0).
			Call(HelperTracePrintk).Exit()
	})
	if logged == "" {
		t.Fatal("trace_printk produced no output")
	}
}

func TestProgramRunCounter(t *testing.T) {
	vm := NewVM()
	prog := vm.MustLoad("p", NewBuilder().Mov64Imm(R0, 0).Exit().MustProgram())
	for i := 0; i < 3; i++ {
		if _, err := prog.Run(nil); err != nil {
			t.Fatal(err)
		}
	}
	if prog.Runs() != 3 {
		t.Fatalf("Runs = %d, want 3", prog.Runs())
	}
}

func TestTooManyArgs(t *testing.T) {
	vm := NewVM()
	prog := vm.MustLoad("p", NewBuilder().Mov64Imm(R0, 0).Exit().MustProgram())
	if _, err := prog.Run(nil, 1, 2, 3, 4, 5, 6); err == nil {
		t.Fatal("expected error for 6 args")
	}
}

// TestInfiniteLoopHitsInsnBudget: Verify does not prove termination,
// so an unbounded loop loads and the run dies on InsnBudget.
func TestInfiniteLoopHitsInsnBudget(t *testing.T) {
	insns := []Instruction{
		{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 0},
		{Op: ClassJMP | OpJa, Off: -2}, // back to pc 0 forever
		{Op: ClassJMP | OpExit},
	}
	vm := NewVM()
	prog, err := vm.Load("spin", insns)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := prog.Run(nil); err == nil || !contains(err.Error(), "budget") {
		t.Fatalf("err = %v, want instruction-budget abort", err)
	}
}

func TestBoundedLoopComputesInVM(t *testing.T) {
	// Sum the first N integers with a runtime loop — the pattern the
	// SnapBPF prefetch program uses to walk its group schedule.
	insns := []Instruction{
		{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 0},
		{Op: ClassALU64 | OpMov | SrcK, Dst: R2, Imm: 0},
		{Op: ClassJMP | OpJge | SrcX, Dst: R2, Src: R1, Off: 3},
		{Op: ClassALU64 | OpAdd | SrcK, Dst: R2, Imm: 1},
		{Op: ClassALU64 | OpAdd | SrcX, Dst: R0, Src: R2},
		{Op: ClassJMP | OpJa, Off: -4},
		{Op: ClassJMP | OpExit},
	}
	vm := NewVM()
	prog := vm.MustLoad("sum", insns)
	got, err := prog.Run(nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 500500 {
		t.Fatalf("sum = %d, want 500500", got)
	}
}

// TestInterpBranches checks the branch observation hook: edge order,
// pc values and taken flags for a short two-branch program.
func TestInterpBranches(t *testing.T) {
	// jeq r1, 1 (taken with r1=1), then jgt r1, 5 (not taken).
	insns := []Instruction{
		{Op: ClassJMP | OpJeq | SrcK, Dst: R1, Imm: 1, Off: 1},
		{Op: ClassJMP | OpExit}, // skipped (r0 uninit — never reached)
		{Op: ClassJMP | OpJgt | SrcK, Dst: R1, Imm: 5, Off: 0},
		{Op: ClassALU64 | OpMov | SrcK, Dst: R0, Imm: 3},
		{Op: ClassJMP | OpExit},
	}
	vm := NewVM()
	p := &Program{Name: "hook", insns: insns, vm: vm, Enabled: true}
	p.dec = decodeProgram(insns, vm)
	type edge struct {
		pc    int
		taken bool
	}
	var got []edge
	ret, err := p.InterpBranches(nil, func(pc int, taken bool) {
		got = append(got, edge{pc, taken})
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 3 {
		t.Fatalf("ret %d, want 3", ret)
	}
	want := []edge{{0, true}, {2, false}}
	if len(got) != len(want) {
		t.Fatalf("observed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: observed %v, want %v", i, got[i], want[i])
		}
	}
}

func TestHelperPoisonsCallerSavedRegs(t *testing.T) {
	// After a call, R1-R5 hold poison; a verified program never reads
	// them, but this documents the runtime behaviour.
	vm := NewVM()
	vm.MustRegisterHelper(KfuncBase+1, "nop",
		func(ctx *CallContext, args [5]uint64) (uint64, error) { return 0, nil })
	b := NewBuilder()
	b.Mov64Imm(R1, 1).Call(KfuncBase+1).Mov64Reg(R0, R1).Exit()
	insns := b.MustProgram()
	if err := Verify(insns, vm); err == nil {
		t.Fatal("verifier should reject reading R1 after a call")
	}
}

func TestDisassembleStable(t *testing.T) {
	insns := NewBuilder().
		Mov64Imm(R0, 1).
		StxDW(R10, -8, R0).
		LdxDW(R2, R10, -8).
		JmpImm(OpJeq, R2, 1, "x").
		Label("x").
		Exit().
		MustProgram()
	s := Disassemble(insns)
	if s == "" {
		t.Fatal("empty disassembly")
	}
	for _, want := range []string{"mov", "stx64", "ldx64", "jeq", "exit"} {
		if !contains(s, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
