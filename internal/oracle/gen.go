package oracle

import (
	"fmt"
	"math/rand"
	"strings"

	"rvdyn/internal/asm"
	"rvdyn/internal/elfrv"
	"rvdyn/internal/riscv"
)

// Constrained random program generation. The emitted programs are valid
// RV64GC(+RVA23 subset) assembly with three structural guarantees that make
// them safe lockstep fodder:
//
//   - every load, store, and atomic targets the sandbox (a .data block whose
//     base lives in gp and s1), a small window above sp, or a page the
//     program just mapped with mmap, all mapped in both engines — except the
//     self-modifying loop production, whose one store targets a known .text
//     word with a known valid instruction;
//   - every branch and jump is strictly forward, except the counted-loop
//     production's single backedge, whose trip count is pinned by an
//     immediately preceding li into a counter the loop body never writes —
//     so control flow terminates structurally either way;
//   - the program ends by folding live registers into a0 and calling exit.
//
// The same seed always yields the same source text, so any divergence the
// sweep or fuzzer finds is reproducible from its seed alone.

const (
	sandboxWords = 512 // 4 KiB of random .dword payload
	sandboxReach = 2040
)

// intDests are the integer registers the generator may clobber: everything
// except zero (discard target, used deliberately now and then), gp/s1 (the
// sandbox base pointers), and sp (kept stable so sp-relative accesses stay
// inside the stack mapping and compress to the c.*sp forms).
var intDests = []string{
	"ra", "tp", "t0", "t1", "t2", "s0", "a0", "a1", "a2", "a3", "a4",
	"a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9",
	"s10", "s11", "t3", "t4", "t5", "t6",
}

// cRegInts is the subset of intDests encodable in compressed c-reg fields
// (x8-x15); biasing toward these exercises the C-extension decode paths.
var cRegInts = []string{"s0", "a0", "a1", "a2", "a3", "a4", "a5"}

var fpRegs = []string{
	"ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7",
	"fs0", "fs1", "fa0", "fa1", "fa2", "fa3", "fa4", "fa5",
	"fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7",
	"fs8", "fs9", "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
}

// cRegFPs are the FP c-regs f8-f15, reachable by c.fld/c.fsd.
var cRegFPs = []string{"fs0", "fs1", "fa0", "fa1", "fa2", "fa3", "fa4", "fa5"}

type progGen struct {
	rng *rand.Rand
	// inc draws the counter increments (increment): a stream of its own,
	// so the main stream, and every program that gets no increment, does
	// not depend on it.
	inc      *rand.Rand
	body     []string
	pending  []pendingLabel // open forward-branch targets
	nextLbl  int
	grouping bool
}

type pendingLabel struct {
	name      string
	countdown int // instructions until the label is placed
}

func (g *progGen) intDest() string {
	if g.rng.Intn(16) == 0 {
		return "zero"
	}
	if g.rng.Intn(3) == 0 {
		return cRegInts[g.rng.Intn(len(cRegInts))]
	}
	return intDests[g.rng.Intn(len(intDests))]
}

func (g *progGen) intSrc() string {
	if g.rng.Intn(12) == 0 {
		return "zero"
	}
	if g.rng.Intn(8) == 0 {
		return "gp" // sandbox address as an arithmetic operand
	}
	return intDests[g.rng.Intn(len(intDests))]
}

func (g *progGen) fpReg() string {
	if g.rng.Intn(3) == 0 {
		return cRegFPs[g.rng.Intn(len(cRegFPs))]
	}
	return fpRegs[g.rng.Intn(len(fpRegs))]
}

// emit appends one instruction line and retires pending branch targets.
// While grouping is set (multi-instruction sequences like address-setup +
// atomic), due labels stay pending so a forward branch can never land
// between the setup and its use.
func (g *progGen) emit(format string, args ...any) {
	g.body = append(g.body, "\t"+fmt.Sprintf(format, args...))
	for i := range g.pending {
		g.pending[i].countdown--
	}
	if !g.grouping {
		g.flushDue()
	}
}

func (g *progGen) flushDue() {
	for i := 0; i < len(g.pending); {
		if g.pending[i].countdown <= 0 {
			g.body = append(g.body, g.pending[i].name+":")
			g.pending = append(g.pending[:i], g.pending[i+1:]...)
		} else {
			i++
		}
	}
}

func (g *progGen) newLabel(skip int) string {
	name := fmt.Sprintf("L%d", g.nextLbl)
	g.nextLbl++
	g.pending = append(g.pending, pendingLabel{name: name, countdown: skip})
	return name
}

// off returns a width-aligned sandbox offset reachable from gp/s1.
func (g *progGen) off(width int) int {
	return g.rng.Intn(sandboxReach/width+1) * width
}

func (g *progGen) step() {
	switch p := g.rng.Intn(103); {
	case p < 22: // register-register ALU
		ops := []string{"add", "sub", "sll", "srl", "sra", "slt", "sltu",
			"xor", "or", "and", "addw", "subw", "sllw", "srlw", "sraw",
			"mul", "mulw", "andn", "orn", "xnor", "min", "minu", "max",
			"maxu", "sh1add", "sh2add", "sh3add", "czero.eqz", "czero.nez"}
		g.emit("%s %s, %s, %s", ops[g.rng.Intn(len(ops))], g.intDest(), g.intSrc(), g.intSrc())
	case p < 36: // register-immediate ALU
		switch g.rng.Intn(5) {
		case 0:
			ops := []string{"addi", "slti", "sltiu", "xori", "ori", "andi", "addiw"}
			g.emit("%s %s, %s, %d", ops[g.rng.Intn(len(ops))], g.intDest(), g.intSrc(),
				g.rng.Intn(4096)-2048)
		case 1:
			ops := []string{"slli", "srli", "srai"}
			g.emit("%s %s, %s, %d", ops[g.rng.Intn(len(ops))], g.intDest(), g.intSrc(), g.rng.Intn(64))
		case 2:
			ops := []string{"slliw", "srliw", "sraiw"}
			g.emit("%s %s, %s, %d", ops[g.rng.Intn(len(ops))], g.intDest(), g.intSrc(), g.rng.Intn(32))
		case 3:
			g.emit("lui %s, %d", g.intDest(), g.rng.Intn(1<<20))
		default:
			g.emit("li %s, %d", g.intDest(), g.rng.Int63()-g.rng.Int63())
		}
	case p < 42: // multiply/divide corner fodder
		ops := []string{"mulh", "mulhu", "mulhsu", "div", "divu", "rem",
			"remu", "divw", "divuw", "remw", "remuw"}
		g.emit("%s %s, %s, %s", ops[g.rng.Intn(len(ops))], g.intDest(), g.intSrc(), g.intSrc())
	case p < 54: // integer load
		type ls struct {
			mn string
			w  int
		}
		all := []ls{{"lb", 1}, {"lbu", 1}, {"lh", 2}, {"lhu", 2},
			{"lw", 4}, {"lwu", 4}, {"ld", 8}}
		op := all[g.rng.Intn(len(all))]
		base := "gp"
		if (op.mn == "lw" || op.mn == "ld") && g.rng.Intn(2) == 0 {
			base = "s1" // c-reg base: compressible with a c-reg dest
		}
		if (op.mn == "lw" || op.mn == "ld") && g.rng.Intn(6) == 0 {
			// sp-relative: exercises c.lwsp/c.ldsp against the stack mapping.
			g.emit("%s %s, %d(sp)", op.mn, g.intDest(), g.rng.Intn(504/op.w+1)*op.w)
			return
		}
		g.emit("%s %s, %d(%s)", op.mn, g.intDest(), g.off(op.w), base)
	case p < 64: // integer store
		type ls struct {
			mn string
			w  int
		}
		all := []ls{{"sb", 1}, {"sh", 2}, {"sw", 4}, {"sd", 8}}
		op := all[g.rng.Intn(len(all))]
		base := "gp"
		if (op.mn == "sw" || op.mn == "sd") && g.rng.Intn(2) == 0 {
			base = "s1"
		}
		if (op.mn == "sw" || op.mn == "sd") && g.rng.Intn(6) == 0 {
			g.emit("%s %s, %d(sp)", op.mn, g.intSrc(), g.rng.Intn(504/op.w+1)*op.w)
			return
		}
		g.emit("%s %s, %d(%s)", op.mn, g.intSrc(), g.off(op.w), base)
	case p < 72: // FP load/store (c.fld/c.fsd/c.fldsp/c.fsdsp candidates)
		switch g.rng.Intn(6) {
		case 0:
			g.emit("fld %s, %d(s1)", g.fpReg(), g.off(8))
		case 1:
			g.emit("fsd %s, %d(s1)", g.fpReg(), g.off(8))
		case 2:
			g.emit("fld %s, %d(sp)", g.fpReg(), g.rng.Intn(64)*8)
		case 3:
			g.emit("fsd %s, %d(sp)", g.fpReg(), g.rng.Intn(64)*8)
		case 4:
			g.emit("flw %s, %d(gp)", g.fpReg(), g.off(4))
		default:
			g.emit("fsw %s, %d(gp)", g.fpReg(), g.off(4))
		}
	case p < 82: // FP compute
		switch g.rng.Intn(8) {
		case 0:
			ops := []string{"fadd.d", "fsub.d", "fmul.d", "fdiv.d", "fmin.d",
				"fmax.d", "fsgnj.d", "fsgnjn.d", "fsgnjx.d"}
			g.emit("%s %s, %s, %s", ops[g.rng.Intn(len(ops))], g.fpReg(), g.fpReg(), g.fpReg())
		case 1:
			ops := []string{"fadd.s", "fsub.s", "fmul.s", "fmin.s", "fmax.s", "fsgnj.s"}
			g.emit("%s %s, %s, %s", ops[g.rng.Intn(len(ops))], g.fpReg(), g.fpReg(), g.fpReg())
		case 2:
			ops := []string{"fmadd.d", "fmsub.d", "fnmadd.d", "fnmsub.d"}
			g.emit("%s %s, %s, %s, %s", ops[g.rng.Intn(len(ops))], g.fpReg(), g.fpReg(),
				g.fpReg(), g.fpReg())
		case 3:
			ops := []string{"feq.d", "flt.d", "fle.d", "feq.s", "flt.s", "fle.s"}
			g.emit("%s %s, %s, %s", ops[g.rng.Intn(len(ops))], g.intDest(), g.fpReg(), g.fpReg())
		case 4:
			rms := []string{"", ", rne", ", rtz", ", rdn", ", rup", ", rmm"}
			cvt := []string{"fcvt.l.d", "fcvt.lu.d", "fcvt.w.d", "fcvt.wu.d"}
			g.emit("%s %s, %s%s", cvt[g.rng.Intn(len(cvt))], g.intDest(), g.fpReg(),
				rms[g.rng.Intn(len(rms))])
		case 5:
			cvt := []string{"fcvt.d.l", "fcvt.d.lu", "fcvt.d.w", "fcvt.d.wu"}
			g.emit("%s %s, %s", cvt[g.rng.Intn(len(cvt))], g.fpReg(), g.intSrc())
		case 6:
			switch g.rng.Intn(4) {
			case 0:
				g.emit("fmv.x.d %s, %s", g.intDest(), g.fpReg())
			case 1:
				g.emit("fmv.d.x %s, %s", g.fpReg(), g.intSrc())
			case 2:
				g.emit("fclass.d %s, %s", g.intDest(), g.fpReg())
			default:
				g.emit("fcvt.d.s %s, %s", g.fpReg(), g.fpReg())
			}
		default:
			g.emit("fsqrt.d %s, %s", g.fpReg(), g.fpReg())
		}
	case p < 88: // atomics: compute an aligned sandbox address, then operate
		g.grouping = true
		defer func() { g.grouping = false; g.flushDue() }()
		tmp := intDests[g.rng.Intn(len(intDests))]
		g.emit("addi %s, gp, %d", tmp, g.off(8))
		switch g.rng.Intn(4) {
		case 0:
			ops := []string{"amoswap.w", "amoadd.w", "amoxor.w", "amoand.w",
				"amoor.w", "amomin.w", "amomax.w", "amominu.w", "amomaxu.w"}
			g.emit("%s %s, %s, (%s)", ops[g.rng.Intn(len(ops))], g.intDest(), g.intSrc(), tmp)
		case 1:
			ops := []string{"amoswap.d", "amoadd.d", "amoxor.d", "amoand.d",
				"amoor.d", "amomin.d", "amomax.d", "amominu.d", "amomaxu.d"}
			g.emit("%s %s, %s, (%s)", ops[g.rng.Intn(len(ops))], g.intDest(), g.intSrc(), tmp)
		case 2:
			g.emit("lr.w %s, (%s)", g.intDest(), tmp)
			g.emit("sc.w %s, %s, (%s)", g.intDest(), g.intSrc(), tmp)
		default:
			g.emit("lr.d %s, (%s)", g.intDest(), tmp)
			g.emit("sc.d %s, %s, (%s)", g.intDest(), g.intSrc(), tmp)
		}
	case p < 92: // CSR reads (fflags via Zicsr; counters via the wired hooks)
		switch g.rng.Intn(3) {
		case 0:
			g.emit("csrrs %s, fflags, zero", g.intDest())
		case 1:
			g.emit("csrrs %s, instret, zero", g.intDest())
		default:
			g.emit("csrrs %s, cycle, zero", g.intDest())
		}
	case p < 94: // back-to-back fusable pairs (macro-op fusion candidates)
		// Emitted under grouping so a forward-branch label can never land
		// between the constituents — the pair reaches the block builder
		// adjacent, the shape the emulator's fusion pass looks for.
		g.grouping = true
		defer func() { g.grouping = false; g.flushDue() }()
		if g.inc.Intn(2) == 0 {
			g.increment(intDests)
		}
		switch g.rng.Intn(4) {
		case 0: // lui rd, hi ; addi rd2, rd, lo
			d := intDests[g.rng.Intn(len(intDests))]
			g.emit("lui %s, %d", d, g.rng.Intn(1<<20))
			g.emit("addi %s, %s, %d", g.intDest(), d, g.rng.Intn(4096)-2048)
		case 1: // slli rd, rs, sh ; add rd2, rd, other
			d := intDests[g.rng.Intn(len(intDests))]
			g.emit("slli %s, %s, %d", d, g.intSrc(), g.rng.Intn(64))
			g.emit("add %s, %s, %s", g.intDest(), d, g.intSrc())
		case 2: // load-pair at off/off+8(gp)
			off := g.rng.Intn(sandboxReach/8) * 8
			g.emit("ld %s, %d(gp)", g.intDest(), off)
			g.emit("ld %s, %d(gp)", g.intDest(), off+8)
		default: // store-pair at off/off+8(gp)
			off := g.rng.Intn(sandboxReach/8) * 8
			g.emit("sd %s, %d(gp)", g.intSrc(), off)
			g.emit("sd %s, %d(gp)", g.intSrc(), off+8)
		}
	case p < 95:
		g.emit("fence")
	case p < 97: // indirect forward jump (inline-lookup fodder for the DBI)
		// la + jalr through a materialized forward label, grouped so the
		// label can never land between the address setup and the jump. The
		// link register alternates between discarded and ra — the shapes a
		// translator's indirect-branch path must both preserve.
		skip := 1 + g.rng.Intn(6)
		g.grouping = true
		defer func() { g.grouping = false; g.flushDue() }()
		d := intDests[g.rng.Intn(len(intDests))]
		lbl := g.newLabel(skip + 2) // +2: la and jalr themselves
		links := []string{"zero", "ra"}
		g.emit("la %s, %s", d, lbl)
		g.emit("jalr %s, 0(%s)", links[g.rng.Intn(2)], d)
	case p < 100: // forward control flow
		skip := 1 + g.rng.Intn(6)
		if g.rng.Intn(4) == 0 {
			// Fused compare+branch shape: slt rd, a, b ; bne rd, zero, L.
			// Grouped so the pair stays adjacent for the fused terminator.
			g.grouping = true
			defer func() { g.grouping = false; g.flushDue() }()
			d := intDests[g.rng.Intn(len(intDests))]
			cmp := []string{"slt", "sltu"}
			br := []string{"bne", "beq"}
			g.emit("%s %s, %s, %s", cmp[g.rng.Intn(2)], d, g.intSrc(), g.intSrc())
			g.emit("%s %s, zero, %s", br[g.rng.Intn(2)], d, g.newLabel(skip))
			return
		}
		if g.rng.Intn(5) == 0 {
			g.emit("jal %s, %s", g.intDest(), g.newLabel(skip))
			return
		}
		ops := []string{"beq", "bne", "blt", "bge", "bltu", "bgeu"}
		g.emit("%s %s, %s, %s", ops[g.rng.Intn(len(ops))], g.intSrc(), g.intSrc(),
			g.newLabel(skip))
	default: // bounded backward loop — the generator's only backedges
		// A counted loop whose trip count exceeds the emulator's
		// chain-hotness threshold, so full-run engines promote the body
		// through superblock → chained → compiled-trace dispatch while the
		// stepping lockstep stays per-instruction. Termination is
		// structural: t6 is initialized right before the backedge block and
		// the body writes only loopSafe registers, never the counter. The
		// whole loop is emitted under grouping, so no pending forward label
		// can land inside it and jump past the counter init.
		g.grouping = true
		defer func() { g.grouping = false; g.flushDue() }()
		smc := g.rng.Intn(3) == 0
		k := 80 + g.rng.Intn(71)
		if smc {
			// The self-modifying variant needs the loop hot (and therefore
			// trace-compiled) before the code store lands, so it runs
			// longer and triggers near the end of the countdown.
			k = 160 + g.rng.Intn(60)
		}
		lbl := fmt.Sprintf("LB%d", g.nextLbl)
		g.nextLbl++
		var victim string
		if smc {
			// Self-modifying variant: one iteration — selected branchlessly,
			// so the store sits on the trace's predicted path — redirects
			// the every-iteration sandbox store onto the `xor t5, t5, t5`
			// word below, rewriting it to `addi t5, zero, 1` while the
			// loop's compiled trace is live. The engine must retire the
			// prefix including the store, sever the trace, and re-decode:
			// a stale cached copy computes t5 = 0 where the rewritten
			// stream computes 1, and the exit fold diverges. (xor on
			// t5 = x30 has no compressed form, so the victim is a full
			// 4-byte parcel; t3/t4/s6 are loop-invariant and the body
			// writes only loopSafe registers, so the select stays intact.)
			w := riscv.MustEncode(riscv.Inst{Mn: riscv.MnADDI,
				Rd: riscv.X30, Rs1: riscv.X0, Imm: 1})
			victim = fmt.Sprintf("LV%d", g.nextLbl)
			g.nextLbl++
			g.emit("li t3, %d", 8+g.rng.Intn(8)) // countdown value that hits code
			g.emit("la t4, %s", victim)
			g.emit("xor t4, t4, gp") // t4 = victim ^ sandbox base
			g.emit("li s6, %d", int64(w))
		}
		g.emit("li t6, %d", k)
		g.body = append(g.body, lbl+":")
		if smc {
			g.emit("xor t5, t6, t3")
			g.emit("sltu t5, zero, t5")
			g.emit("addi t5, t5, -1") // all-ones iff t6 == trigger
			g.emit("and t5, t5, t4")
			g.emit("xor t5, t5, gp") // victim iff t6 == trigger, else sandbox
			g.emit("sw s6, 0(t5)")
			g.body = append(g.body, victim+":")
			g.emit("xor t5, t5, t5")
		}
		for i, n := 0, 2+g.rng.Intn(3); i < n; i++ {
			d := loopSafe[g.rng.Intn(len(loopSafe))]
			switch g.rng.Intn(5) {
			case 0:
				ops := []string{"add", "xor", "sltu", "mul", "and"}
				g.emit("%s %s, %s, %s", ops[g.rng.Intn(len(ops))], d, g.intSrc(), g.intSrc())
			case 1:
				g.emit("addi %s, %s, %d", d, g.intSrc(), g.rng.Intn(4096)-2048)
			case 2:
				g.emit("ld %s, %d(gp)", d, g.off(8))
			case 3:
				g.emit("fld %s, %d(s1)", g.fpReg(), g.off(8))
			default:
				g.emit("sd %s, %d(gp)", d, g.off(8))
			}
		}
		if g.inc.Intn(2) == 0 {
			// From the third pass on, the increment's page cache hits:
			// the first runs in the block that falls into the label, the
			// second fills the cache of the block built at the label.
			g.increment(loopSafe)
		}
		g.emit("addi t6, t6, -1")
		g.emit("bne t6, zero, %s", lbl)
	}
}

// increment emits the counter increment instrumentation puts at a block
// entry, v = v + c on a sandbox dword, drawn from the inc stream:
// lui rA, %hi(v), with %lo(v) as the offset. The emulator fuses it into one
// op. rA and rB are distinct registers of regs.
func (g *progGen) increment(regs []string) {
	v := fmt.Sprintf("sandbox+%d", g.inc.Intn(sandboxWords)*8)
	i := g.inc.Intn(len(regs))
	a, b := regs[i], regs[(i+1+g.inc.Intn(len(regs)-1))%len(regs)]
	g.emit("lui %s, %%hi(%s)", a, v)
	g.emit("ld %s, %%lo(%s)(%s)", b, v, a)
	g.emit("addi %s, %s, %d", b, b, g.inc.Intn(4096)-2048)
	g.emit("sd %s, %%lo(%s)(%s)", b, v, a)
}

// freshPage maps one page with mmap, reads it while it is still untouched
// (it must read zero), then writes and re-reads it: the demand-zero path of
// the emulator's address space against the reference's eager mapping.
// Grouped, so a forward branch skips all of it or none.
func (g *progGen) freshPage(side *rand.Rand) {
	g.grouping = true
	defer func() { g.grouping = false; g.flushDue() }()
	off := side.Intn(256) * 8
	g.emit("li a0, 0")
	g.emit("li a1, 4096")
	g.emit("li a7, 222")
	g.emit("ecall")
	g.emit("ld a1, %d(a0)", off)
	g.emit("sd a0, %d(a0)", off)
	g.emit("ld a2, %d(a0)", off)
}

// loopSafe is the register palette a counted loop's body may write: the
// counter (t6), the SMC scratch/victim registers (t3-t5), and the pinned
// bases (gp, s1, sp) are excluded, so a loop can never change its own trip
// count or rewrite anything but the designated victim word.
var loopSafe = []string{"t0", "t1", "t2", "a0", "a1", "a2", "a3", "a4", "a5", "s2", "s3", "s4", "s5"}

// GenerateProgram returns the assembly source of a random-but-valid program
// of roughly n body instructions, deterministic in seed.
func GenerateProgram(seed int64, n int) string {
	g := &progGen{rng: rand.New(rand.NewSource(seed)),
		inc: rand.New(rand.NewSource(seed ^ 0x696e6372))}
	var b strings.Builder
	b.WriteString("\t.text\n\t.globl _start\n_start:\n")
	b.WriteString("\tla gp, sandbox\n")
	b.WriteString("\tla s1, sandbox\n")
	// Seed the register files: integers from the RNG, floats from the
	// sandbox payload (arbitrary bit patterns, NaNs included).
	for _, reg := range intDests {
		g.emit("li %s, %d", reg, int64(g.rng.Uint64()))
	}
	for i, reg := range fpRegs {
		g.emit("fld %s, %d(gp)", reg, (i*8)%(sandboxReach+8))
	}
	// The fresh-page production draws from a stream of its own, so the main
	// stream, and every program that does not get the production, does not
	// depend on it.
	side := rand.New(rand.NewSource(seed ^ 0x6d6d6170))
	freshAt := -1
	if side.Intn(4) == 0 {
		freshAt = side.Intn(n + 1)
	}
	for i := 0; i < n; i++ {
		if i == freshAt {
			g.freshPage(side)
		}
		g.step()
	}
	// Retire any still-open forward labels.
	for _, p := range g.pending {
		g.body = append(g.body, p.name+":")
	}
	g.pending = nil
	// Fold register state into a deterministic exit code.
	g.emit("xor a0, a0, a1")
	g.emit("xor a0, a0, t0")
	g.emit("xor a0, a0, s2")
	g.emit("andi a0, a0, 63")
	g.emit("li a7, 93")
	g.emit("ecall")
	for _, line := range g.body {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	b.WriteString("\n\t.data\n\t.balign 8\nsandbox:\n")
	for i := 0; i < sandboxWords; i++ {
		fmt.Fprintf(&b, "\t.dword %d\n", int64(g.rng.Uint64()))
	}
	return b.String()
}

// BuildProgram assembles the seed's program into an ELF image ready for the
// lockstep runner.
func BuildProgram(seed int64, n int) (*elfrv.File, error) {
	src := GenerateProgram(seed, n)
	f, err := asm.Assemble(src, asm.Options{Arch: riscv.RVA23Subset})
	if err != nil {
		return nil, fmt.Errorf("oracle: seed %d does not assemble: %w", seed, err)
	}
	return f, nil
}

// LockstepSeed generates, assembles, and lockstep-runs one seed.
func LockstepSeed(seed int64, n int) (*LockstepResult, *Divergence, error) {
	f, err := BuildProgram(seed, n)
	if err != nil {
		return nil, nil, err
	}
	res, div, err := RunLockstep(f, 0)
	if div != nil {
		div.Seed = seed
	}
	return res, div, err
}
