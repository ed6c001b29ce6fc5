package ebpf

import "fmt"

// regKind is the verifier's abstract type for a register value. The
// kinds form a three-level lattice used when joining states at control
// flow merge points:
//
//	kindStackPtr  ⊑  kindScalar  ⊑  kindUninit
//
// Joining toward kindUninit/kindScalar only ever *restricts* what a
// program may do with the register (scalars cannot be dereferenced,
// uninitialized registers cannot be read), so the analysis is sound.
type regKind uint8

const (
	kindUninit regKind = iota
	kindScalar
	kindStackPtr
	// kindMapConst is a constant that names a registered map (the
	// analogue of the kernel's CONST_PTR_TO_MAP): map helpers require
	// their first argument to carry this kind, so a clobbered or
	// arbitrary scalar can never reach bpf_map_*_elem.
	kindMapConst
)

// regState is the verifier's knowledge of one register.
type regState struct {
	kind regKind
	// off is the byte offset relative to the frame pointer for
	// kindStackPtr (0 for fp itself, negative after subtraction), or
	// the map fd for kindMapConst.
	off int64
}

func joinReg(a, b regState) regState {
	if a == b {
		return a
	}
	if a.kind == kindUninit || b.kind == kindUninit {
		return regState{kind: kindUninit}
	}
	// ptr⊔scalar or ptrs with different offsets: demote to scalar.
	return regState{kind: kindScalar}
}

type verifierState struct {
	regs [numRegisters]regState
}

func joinState(a, b verifierState) (verifierState, bool) {
	var out verifierState
	changed := false
	for i := range a.regs {
		out.regs[i] = joinReg(a.regs[i], b.regs[i])
		if out.regs[i] != a.regs[i] {
			changed = true
		}
	}
	return out, changed
}

// VerifyError describes a verification failure at an instruction.
type VerifyError struct {
	PC   int
	Insn Instruction
	Msg  string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("verifier: insn %d (%s): %s", e.PC, e.Insn, e.Msg)
}

// helperResolver lets the verifier check call targets without
// depending on a concrete VM (tests can pass a stub).
type helperResolver interface {
	Helper(id int32) (HelperSpec, bool)
}

// mapResolver is optionally implemented by the resolver (a *VM always
// does); when present, the verifier tracks which constants name maps
// and enforces map-helper argument types.
type mapResolver interface {
	MapByFD(fd int32) (*Map, bool)
}

// isMapHelper reports whether id is one of the map-access helpers and
// how many stack-pointer arguments follow the map argument.
func isMapHelper(id int32) (ptrArgs int, ok bool) {
	switch id {
	case HelperMapLookupElem, HelperMapUpdateElem:
		return 2, true // key ptr, value ptr
	case HelperMapDeleteElem:
		return 1, true // key ptr
	}
	return 0, false
}

// Verify statically checks an eBPF program, modelling the modern
// (bounded-loop-capable) Linux verifier as a forward dataflow analysis
// over register states:
//
//   - the program is non-empty and at most MaxProgramLen instructions;
//   - all jump targets are in bounds; backward jumps (loops) are
//     permitted — the runtime instruction budget (InsnBudget, the
//     analogue of the kernel's 1M-instruction complexity bound)
//     enforces termination, and the dataflow join guarantees the
//     analysis itself terminates;
//   - every register is written before it is read on every path;
//     R1–R5 are clobbered by calls; R10 is read-only;
//   - loads and stores stay within the 512-byte stack frame and only
//     go through tracked stack pointers;
//   - division/modulo by a zero immediate is rejected;
//   - call targets resolve to registered helpers/kfuncs;
//   - every execution path reaches EXIT with R0 initialized (control
//     flow may not fall off the end).
//
// These are exactly the checks the paper's programs need (register
// init, stack bounds, jump bounds, an instruction budget). The pass
// tracks no value ranges, so it rejects variable-offset stack accesses
// and structurally invalid code on any edge, even one no execution can
// take; every error is final.
func Verify(insns []Instruction, res helperResolver) error {
	if len(insns) == 0 {
		return fmt.Errorf("verifier: empty program")
	}
	if len(insns) > MaxProgramLen {
		return fmt.Errorf("verifier: program too long: %d insns (max %d)", len(insns), MaxProgramLen)
	}

	maps, _ := res.(mapResolver)
	mapConst := func(imm int64) regState {
		if maps != nil && imm >= 0 && imm <= 1<<31-1 {
			if _, ok := maps.MapByFD(int32(imm)); ok {
				return regState{kind: kindMapConst, off: imm}
			}
		}
		return regState{kind: kindScalar}
	}

	// Entry state: R1–R5 hold context args (scalars), R10 is fp.
	var entry verifierState
	for r := R1; r <= R5; r++ {
		entry.regs[r] = regState{kind: kindScalar}
	}
	entry.regs[R10] = regState{kind: kindStackPtr, off: 0}

	seen := make(map[int]verifierState, len(insns))
	seen[0] = entry
	work := []int{0}
	inWork := make(map[int]bool, len(insns))
	inWork[0] = true

	// flow merges state st into successor pc, queueing it when the
	// merged state adds information.
	var vErr error
	flow := func(pc int, st verifierState) bool {
		if pc < 0 || pc >= len(insns) {
			vErr = fmt.Errorf("verifier: control flow falls off the program (pc=%d)", pc)
			return false
		}
		old, ok := seen[pc]
		if !ok {
			seen[pc] = st
		} else {
			merged, changed := joinState(old, st)
			if !changed {
				return true
			}
			seen[pc] = merged
		}
		if !inWork[pc] {
			work = append(work, pc)
			inWork[pc] = true
		}
		return true
	}

	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[pc] = false
		st := seen[pc]
		in := insns[pc]

		fail := func(format string, args ...any) error {
			return &VerifyError{PC: pc, Insn: in, Msg: fmt.Sprintf(format, args...)}
		}

		switch in.Class() {
		case ClassALU64, ClassALU:
			if in.Dst >= numRegisters || (in.usesRegSrc() && in.Src >= numRegisters) {
				return fail("bad register")
			}
			if in.Dst == R10 {
				return fail("R10 is read-only")
			}
			op := in.aluOp()
			if op > OpArsh {
				return fail("unsupported alu op %#x", op)
			}
			if in.usesRegSrc() && st.regs[in.Src].kind == kindUninit {
				return fail("read of uninitialized register %s", in.Src)
			}
			if op != OpMov {
				if st.regs[in.Dst].kind == kindUninit {
					return fail("read of uninitialized register %s", in.Dst)
				}
			}
			if (op == OpDiv || op == OpMod) && !in.usesRegSrc() && in.Imm == 0 {
				return fail("division by zero immediate")
			}
			// Pointer arithmetic tracking: only fp-relative adds and
			// subs with immediates keep pointer type; constant moves
			// that name a registered map become map references.
			next := regState{kind: kindScalar}
			switch {
			case op == OpMov && in.usesRegSrc():
				next = st.regs[in.Src]
			case op == OpMov && !in.usesRegSrc() && in.Class() == ClassALU64:
				next = mapConst(int64(in.Imm))
			case op == OpAdd && !in.usesRegSrc() && st.regs[in.Dst].kind == kindStackPtr:
				next = regState{kind: kindStackPtr, off: st.regs[in.Dst].off + int64(in.Imm)}
			case op == OpSub && !in.usesRegSrc() && st.regs[in.Dst].kind == kindStackPtr:
				next = regState{kind: kindStackPtr, off: st.regs[in.Dst].off - int64(in.Imm)}
			}
			if in.Class() == ClassALU && next.kind == kindStackPtr {
				// 32-bit ops truncate pointers into scalars.
				next = regState{kind: kindScalar}
			}
			st.regs[in.Dst] = next
			if !flow(pc+1, st) {
				return vErr
			}

		case ClassLD:
			if in.Op != OpLdImm64 {
				return fail("unsupported LD opcode %#x", in.Op)
			}
			if pc+1 >= len(insns) {
				return fail("truncated lddw")
			}
			if insns[pc+1].Op != 0 {
				return fail("lddw second slot has nonzero opcode")
			}
			if in.Dst >= numRegisters || in.Dst == R10 {
				return fail("bad lddw destination")
			}
			if insns[pc+1].Imm == 0 {
				st.regs[in.Dst] = mapConst(int64(uint32(in.Imm)))
			} else {
				st.regs[in.Dst] = regState{kind: kindScalar}
			}
			if !flow(pc+2, st) {
				return vErr
			}

		case ClassLDX:
			if in.size() == 0 {
				return fail("bad size")
			}
			if in.Dst >= numRegisters || in.Dst == R10 || in.Src >= numRegisters {
				return fail("bad register")
			}
			if err := checkStackAccess(st, in.Src, in.Off, in.size()); err != nil {
				return fail("%v", err)
			}
			st.regs[in.Dst] = regState{kind: kindScalar}
			if !flow(pc+1, st) {
				return vErr
			}

		case ClassSTX:
			if in.size() == 0 {
				return fail("bad size")
			}
			if in.Dst >= numRegisters || in.Src >= numRegisters {
				return fail("bad register")
			}
			if st.regs[in.Src].kind == kindUninit {
				return fail("store of uninitialized register %s", in.Src)
			}
			if err := checkStackAccess(st, in.Dst, in.Off, in.size()); err != nil {
				return fail("%v", err)
			}
			if !flow(pc+1, st) {
				return vErr
			}

		case ClassST:
			if in.size() == 0 {
				return fail("bad size")
			}
			if in.Dst >= numRegisters {
				return fail("bad register")
			}
			if err := checkStackAccess(st, in.Dst, in.Off, in.size()); err != nil {
				return fail("%v", err)
			}
			if !flow(pc+1, st) {
				return vErr
			}

		case ClassJMP, ClassJMP32:
			if in.Class() == ClassJMP32 {
				switch in.aluOp() {
				case OpExit, OpCall, OpJa:
					return fail("exit/call/ja must use the 64-bit JMP class")
				}
			}
			switch in.aluOp() {
			case OpExit:
				if st.regs[R0].kind == kindUninit {
					return fail("R0 not initialized at exit")
				}
				// Terminal: nothing flows onward.
			case OpCall:
				if res == nil {
					return fail("no helper resolver")
				}
				if _, ok := res.Helper(in.Imm); !ok {
					return fail("unknown helper %d", in.Imm)
				}
				if ptrArgs, ok := isMapHelper(in.Imm); ok && maps != nil {
					// The kernel's ARG_CONST_MAP_PTR / ARG_PTR_TO_MAP_KEY
					// discipline: R1 must name a map, the following
					// arguments must be in-frame stack pointers.
					if st.regs[R1].kind != kindMapConst {
						return fail("map helper requires a map reference in R1")
					}
					for a := 0; a < ptrArgs; a++ {
						r := R2 + Register(a)
						if err := checkStackAccess(st, r, 0, 8); err != nil {
							return fail("map helper argument %s: %v", r, err)
						}
					}
				}
				// R1-R5 become unreadable, R0 holds the result.
				st.regs[R0] = regState{kind: kindScalar}
				for r := R1; r <= R5; r++ {
					st.regs[r] = regState{kind: kindUninit}
				}
				if !flow(pc+1, st) {
					return vErr
				}
			case OpJa:
				if !flow(pc+1+int(in.Off), st) {
					return vErr
				}
			default:
				if in.aluOp() > OpJsle {
					return fail("unsupported jmp op %#x", in.aluOp())
				}
				if in.Dst >= numRegisters || (in.usesRegSrc() && in.Src >= numRegisters) {
					return fail("register out of range in conditional jump")
				}
				if st.regs[in.Dst].kind == kindUninit {
					return fail("read of uninitialized register %s", in.Dst)
				}
				if in.usesRegSrc() && st.regs[in.Src].kind == kindUninit {
					return fail("read of uninitialized register %s", in.Src)
				}
				if !flow(pc+1+int(in.Off), st) {
					return vErr
				}
				if !flow(pc+1, st) {
					return vErr
				}
			}

		default:
			return fail("unsupported instruction class %#x", in.Class())
		}
	}
	return nil
}

func checkStackAccess(st verifierState, base Register, off int16, size int) error {
	rs := st.regs[base]
	switch rs.kind {
	case kindUninit:
		return fmt.Errorf("memory access through uninitialized register %s", base)
	case kindScalar:
		return fmt.Errorf("memory access through scalar register %s (only stack pointers may be dereferenced)", base)
	}
	lo := rs.off + int64(off)
	hi := lo + int64(size)
	if lo < -StackSize || hi > 0 {
		return fmt.Errorf("stack access out of frame: fp%+d..fp%+d (frame is [fp-%d, fp))", lo, hi, StackSize)
	}
	return nil
}
