package ebpf

import "testing"

// Microbenchmarks for the eBPF environment itself: interpreter
// throughput, verifier latency and map operations. These bound the
// kernel-side overhead SnapBPF adds per page-cache insertion.

func benchProgram() []Instruction {
	// A capture-shaped program: filter, two lookups, two updates.
	b := NewBuilder()
	b.StxDW(R10, -8, R1).
		StxDW(R10, -16, R2).
		JmpImm(OpJeq, R1, 1, "match").
		Mov64Imm(R0, 0).
		Exit().
		Label("match").
		LdxDW(R6, R10, -16).
		Add64Imm(R6, 1).
		StxDW(R10, -24, R6).
		Mov64Imm(R0, 0).
		Exit()
	return b.MustProgram()
}

func BenchmarkInterpreterCaptureShaped(b *testing.B) {
	vm := NewVM()
	prog := vm.MustLoad("bench", benchProgram())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Run(nil, 1, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpreterTightLoop(b *testing.B) {
	// sum(1..1000) per iteration: ~4000 instructions.
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
	prog := vm.MustLoad("loop", insns)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Run(nil, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifier(b *testing.B) {
	insns := benchProgram()
	vm := NewVM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(insns, vm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashMapUpdateLookup(b *testing.B) {
	m := MustNewMap(MapTypeHash, "h", 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i) % (1 << 18)
		if err := m.Update(k, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if _, ok := m.Lookup(k); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkMarshalInstructions(b *testing.B) {
	insns := benchProgram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MarshalInstructions(insns); err != nil {
			b.Fatal(err)
		}
	}
}

// mapHelperProgram stores a key/value pair, updates the map and looks
// the key back up — the capture program's actual helper mix — so this
// measures the decoded call fast path plus the program's map-FD cache.
func mapHelperProgram(fd int32) []Instruction {
	b := NewBuilder()
	b.StxDW(R10, -8, R1). // key = arg1
				StxDW(R10, -16, R2). // value = arg2
				Mov64Imm(R1, fd).
				Mov64Reg(R2, R10).
				Add64Imm(R2, -8).
				Mov64Reg(R3, R10).
				Add64Imm(R3, -16).
				Call(HelperMapUpdateElem).
				Mov64Imm(R1, fd).
				Mov64Reg(R2, R10).
				Add64Imm(R2, -8).
				Mov64Reg(R3, R10).
				Add64Imm(R3, -24).
				Call(HelperMapLookupElem).
				Mov64Reg(R0, R0).
				Exit()
	return b.MustProgram()
}

// BenchmarkInterpreterMapHelpers measures a run dominated by map
// helper calls: one update + one lookup per execution, resolved
// through the load-time map-FD cache.
func BenchmarkInterpreterMapHelpers(b *testing.B) {
	vm := NewVM()
	fd := vm.RegisterMap(MustNewMap(MapTypeHash, "ws", 1<<20))
	prog := vm.MustLoad("maps", mapHelperProgram(fd))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Run(nil, uint64(i)%(1<<18), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadDecode measures the one-time load cost the decode cache
// adds: verification plus pre-decoding of a capture-shaped program.
func BenchmarkLoadDecode(b *testing.B) {
	insns := benchProgram()
	vm := NewVM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Load("bench", insns); err != nil {
			b.Fatal(err)
		}
	}
}
