package riscv

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestInstSize pins Inst at 40 bytes: a field added or reordered into a
// padding hole grows every decoded-instruction slice by a fifth.
func TestInstSize(t *testing.T) {
	if n := unsafe.Sizeof(Inst{}); n != 40 {
		t.Errorf("unsafe.Sizeof(Inst{}) = %d, want 40", n)
	}
}

func TestRegNames(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{X0, "zero"}, {X1, "ra"}, {X2, "sp"}, {X8, "s0"}, {X10, "a0"},
		{X17, "a7"}, {X31, "t6"}, {F0, "ft0"}, {F10, "fa0"}, {F31, "ft11"},
		{RegPC, "pc"}, {RegNone, "none"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Reg(%d).String() = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestLookupReg(t *testing.T) {
	for _, c := range []struct {
		name string
		want Reg
	}{
		{"a0", RegA0}, {"x10", RegA0}, {"fp", RegFP}, {"s0", RegFP},
		{"x8", RegFP}, {"fa0", F10}, {"f10", F10}, {"zero", X0}, {"x0", X0},
	} {
		got, ok := LookupReg(c.name)
		if !ok || got != c.want {
			t.Errorf("LookupReg(%q) = %v, %v; want %v, true", c.name, got, ok, c.want)
		}
	}
	if _, ok := LookupReg("x32"); ok {
		t.Error("LookupReg(x32) succeeded; want failure")
	}
}

func TestRegSetOps(t *testing.T) {
	var s RegSet
	if !s.Empty() {
		t.Fatal("zero RegSet not empty")
	}
	s.Add(RegA0)
	s.Add(F10)
	s.Add(RegPC)
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	for _, r := range []Reg{RegA0, F10, RegPC} {
		if !s.Contains(r) {
			t.Errorf("set missing %v", r)
		}
	}
	t2 := NewRegSet(RegA0, RegA1)
	if got := s.Intersect(t2); got.Count() != 1 || !got.Contains(RegA0) {
		t.Errorf("Intersect = %v", got)
	}
	if got := s.Union(t2); got.Count() != 4 {
		t.Errorf("Union count = %d, want 4", got.Count())
	}
	if got := s.Minus(t2); got.Contains(RegA0) || got.Count() != 2 {
		t.Errorf("Minus = %v", got)
	}
	s.Remove(RegPC)
	if s.Contains(RegPC) {
		t.Error("Remove(pc) did not remove")
	}
}

func TestRegSetRegsSorted(t *testing.T) {
	s := NewRegSet(RegT6, RegA0, X1, F0, F31)
	regs := s.Regs()
	for i := 1; i < len(regs); i++ {
		if regs[i-1] >= regs[i] {
			t.Fatalf("Regs() not ascending: %v", regs)
		}
	}
}

func TestParseArchString(t *testing.T) {
	cases := []struct {
		in   string
		want ExtSet
	}{
		{"rv64imafdc", ExtI | ExtM | ExtA | ExtF | ExtD | ExtC},
		{"rv64gc", RV64GC},
		{"rv64i", ExtI},
		{"rv64imafdc_zicsr_zifencei", RV64GC},
		{"rv64i2p1_m2p0_a2p1_f2p2_d2p2_c2p0_zicsr2p0_zifencei2p0", RV64GC},
		{"rv64imac", ExtI | ExtM | ExtA | ExtC},
		{"RV64GC", RV64GC},
	}
	for _, c := range cases {
		got, err := ParseArchString(c.in)
		if err != nil {
			t.Errorf("ParseArchString(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseArchString(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "x86_64", "rv"} {
		if _, err := ParseArchString(bad); err == nil {
			t.Errorf("ParseArchString(%q) succeeded; want error", bad)
		}
	}
}

func TestArchStringRoundTrip(t *testing.T) {
	sets := []ExtSet{ExtI, ExtI | ExtM, ExtI | ExtC, RV64GC, ExtG}
	for _, s := range sets {
		got, err := ParseArchString(s.ArchString())
		if err != nil {
			t.Fatalf("ParseArchString(%q): %v", s.ArchString(), err)
		}
		if got != s {
			t.Errorf("round trip of %v via %q = %v", s, s.ArchString(), got)
		}
	}
}

func TestExtSetHas(t *testing.T) {
	if !RV64GC.Has(ExtC) || !RV64GC.Has(ExtD|ExtF) {
		t.Error("RV64GC should include C and FD")
	}
	if (ExtI | ExtM).Has(ExtC) {
		t.Error("IM should not include C")
	}
}

// mkInst builds an instruction for encoding tests.
func mk(mn Mnemonic, rd, rs1, rs2 Reg, imm int64) Inst {
	return Inst{Mn: mn, Rd: rd, Rs1: rs1, Rs2: rs2, Rs3: RegNone, Imm: imm, RM: RMDyn}
}

func TestEncodeDecodeRoundTripHandPicked(t *testing.T) {
	cases := []Inst{
		mk(MnADDI, RegA0, RegA1, RegNone, -42),
		mk(MnADDI, RegA0, RegA1, RegNone, 2047),
		mk(MnLUI, RegT0, RegNone, RegNone, 0xfffff&^0x80000), // positive 19-bit
		mk(MnLUI, RegT0, RegNone, RegNone, -1),
		mk(MnAUIPC, RegT1, RegNone, RegNone, 0x12345),
		mk(MnJAL, RegRA, RegNone, RegNone, -2048),
		mk(MnJAL, X0, RegNone, RegNone, 4096),
		mk(MnJALR, X0, RegRA, RegNone, 0),
		mk(MnJALR, RegRA, RegT0, RegNone, 100),
		mk(MnBEQ, RegNone, RegA0, RegA1, -64),
		mk(MnBGEU, RegNone, RegT3, RegT4, 4094),
		mk(MnLW, RegA0, RegSP, RegNone, 16),
		mk(MnLD, RegS1, RegFP, RegNone, -8),
		mk(MnLBU, RegT2, RegA0, RegNone, 0),
		mk(MnSD, RegNone, RegSP, RegRA, 8),
		mk(MnSB, RegNone, RegA0, RegA1, -1),
		mk(MnSLLI, RegA0, RegA0, RegNone, 63),
		mk(MnSRAI, RegA1, RegA1, RegNone, 1),
		mk(MnSRLIW, RegA2, RegA3, RegNone, 31),
		mk(MnADD, RegA0, RegA1, RegA2, 0),
		mk(MnSUB, RegS1, RegS2, RegS3, 0),
		mk(MnSRAW, RegT0, RegT1, RegT2, 0),
		mk(MnMUL, RegA0, RegA1, RegA2, 0),
		mk(MnDIVU, RegA3, RegA4, RegA5, 0),
		mk(MnREMW, RegT3, RegT4, RegT5, 0),
		mk(MnECALL, RegNone, RegNone, RegNone, 0),
		mk(MnEBREAK, RegNone, RegNone, RegNone, 0),
		mk(MnFENCE, RegNone, RegNone, RegNone, 0x0ff),
		mk(MnFENCEI, RegNone, RegNone, RegNone, 0),
		mk(MnFLD, F10, RegSP, RegNone, 24),
		mk(MnFSD, RegNone, RegSP, F10, 24),
		mk(MnFLW, F1, RegA0, RegNone, 4),
		mk(MnFSW, RegNone, RegA0, F1, 4),
		mk(MnFADDD, F0, F1, F2, 0),
		mk(MnFMULD, F10, F11, F12, 0),
		mk(MnFSGNJD, F3, F4, F5, 0),
		mk(MnFEQD, RegA0, F1, F2, 0),
		mk(MnFMVXD, RegA0, F0, RegNone, 0),
		mk(MnFMVDX, F0, RegA0, RegNone, 0),
		mk(MnFSQRTD, F1, F2, RegNone, 0),
	}
	for _, want := range cases {
		w, err := Encode(want)
		if err != nil {
			t.Errorf("Encode(%v): %v", want, err)
			continue
		}
		got, err := decode32(w, 0)
		if err != nil {
			t.Errorf("decode32(Encode(%v)=0x%08x): %v", want, w, err)
			continue
		}
		if got.Mn != want.Mn {
			t.Errorf("round trip %v: got mnemonic %v", want.Mn, got.Mn)
			continue
		}
		if got.Imm != want.Imm && want.Mn != MnECALL && want.Mn != MnEBREAK && want.Mn != MnFENCEI {
			t.Errorf("round trip %v: imm %d != %d", want.Mn, got.Imm, want.Imm)
		}
		checkReg := func(name string, g, w Reg) {
			if w != RegNone && g != w {
				t.Errorf("round trip %v: %s %v != %v", want.Mn, name, g, w)
			}
		}
		checkReg("rd", got.Rd, want.Rd)
		checkReg("rs1", got.Rs1, want.Rs1)
		checkReg("rs2", got.Rs2, want.Rs2)
	}
}

func TestFMARoundTrip(t *testing.T) {
	for _, mn := range []Mnemonic{MnFMADDS, MnFMSUBS, MnFNMSUBS, MnFNMADDS, MnFMADDD, MnFMSUBD, MnFNMSUBD, MnFNMADDD} {
		in := Inst{Mn: mn, Rd: F0, Rs1: F1, Rs2: F2, Rs3: F3, RM: RMDyn}
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", mn, err)
		}
		got, err := decode32(w, 0)
		if err != nil {
			t.Fatalf("decode32(%v): %v", mn, err)
		}
		if got.Mn != mn || got.Rs3 != F3 || got.RM != RMDyn {
			t.Errorf("%v round trip: got %v rs3=%v rm=%d", mn, got.Mn, got.Rs3, got.RM)
		}
	}
}

func TestCSRRoundTrip(t *testing.T) {
	in := Inst{Mn: MnCSRRW, Rd: RegA0, Rs1: RegA1, CSR: 0xC01}
	w, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decode32(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mn != MnCSRRW || got.CSR != 0xC01 || got.Rd != RegA0 || got.Rs1 != RegA1 {
		t.Errorf("csrrw round trip: %+v", got)
	}
	in = Inst{Mn: MnCSRRSI, Rd: RegA0, CSR: 0x300, Imm: 17}
	w, err = Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err = decode32(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mn != MnCSRRSI || got.Imm != 17 || got.CSR != 0x300 {
		t.Errorf("csrrsi round trip: %+v", got)
	}
}

func TestAMORoundTrip(t *testing.T) {
	for _, mn := range []Mnemonic{MnLRW, MnSCW, MnAMOSWAPW, MnAMOADDD, MnAMOMAXUD, MnLRD} {
		in := Inst{Mn: mn, Rd: RegA0, Rs1: RegA1, Rs2: RegA2, Aq: true, Rl: true}
		if mn == MnLRW || mn == MnLRD {
			in.Rs2 = RegNone
		}
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", mn, err)
		}
		got, err := decode32(w, 0)
		if err != nil {
			t.Fatalf("decode(%v): %v", mn, err)
		}
		if got.Mn != mn || !got.Aq || !got.Rl {
			t.Errorf("%v round trip: got %v aq=%v rl=%v", mn, got.Mn, got.Aq, got.Rl)
		}
	}
}

// TestEncodeDecodeQuick fuzzes random 32-bit words: every word that decodes
// successfully must re-encode to the identical word (decode is the left
// inverse of encode on the valid-encoding subset).
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(w uint32) bool {
		w |= 3 // force a 32-bit (non-compressed) encoding
		inst, err := decode32(w, 0)
		if err != nil {
			return true // illegal encodings are fine
		}
		// Some fields are don't-care bits the decoder normalizes away
		// (fence fm bits, amo on lr). Skip shapes with known don't-cares.
		if inst.Mn == MnFENCE || inst.Mn == MnFENCEI {
			return true
		}
		inst.Compressed = false
		back, err := Encode(inst)
		if err != nil {
			t.Logf("decoded %v (0x%08x) but cannot re-encode: %v", inst, w, err)
			return false
		}
		if back != w {
			t.Logf("0x%08x -> %v -> 0x%08x", w, inst, back)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200000}); err != nil {
		t.Error(err)
	}
}

// TestCompressedExpansionQuick fuzzes random 16-bit halfwords: every
// halfword that decodes must (a) report Len 2 and Compressed, and (b) if
// Compress can re-compress the expansion, produce an equivalent expansion.
func TestCompressedExpansionQuick(t *testing.T) {
	f := func(h uint16) bool {
		if h&3 == 3 {
			h &^= 2 // force a compressed quadrant
		}
		inst, err := decodeCompressed(h, 0)
		if err != nil {
			return true
		}
		if inst.Len != 2 || !inst.Compressed {
			t.Logf("0x%04x: Len=%d Compressed=%v", h, inst.Len, inst.Compressed)
			return false
		}
		// The expansion must be encodable as a 32-bit instruction.
		if _, err := Encode(inst); err != nil {
			t.Logf("0x%04x expands to %v which cannot encode: %v", h, inst, err)
			return false
		}
		// If the expansion compresses again, it must decode identically.
		if h2, ok := Compress(inst); ok {
			inst2, err := decodeCompressed(h2, 0)
			if err != nil {
				t.Logf("recompressed 0x%04x -> 0x%04x fails decode: %v", h, h2, err)
				return false
			}
			if inst2.Mn != inst.Mn || inst2.Imm != inst.Imm ||
				inst2.Rd != inst.Rd || inst2.Rs1 != inst.Rs1 || inst2.Rs2 != inst.Rs2 {
				t.Logf("0x%04x: %v != recompressed %v (0x%04x)", h, inst, inst2, h2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100000}); err != nil {
		t.Error(err)
	}
}

func TestCompressHandPicked(t *testing.T) {
	cases := []struct {
		in       Inst
		wantOK   bool
		wantBack Mnemonic
	}{
		{mk(MnADDI, RegA0, RegA0, RegNone, 5), true, MnADDI},         // c.addi
		{mk(MnADDI, RegA0, X0, RegNone, -3), true, MnADDI},           // c.li
		{mk(MnADDI, RegSP, RegSP, RegNone, -32), true, MnADDI},       // c.addi16sp
		{mk(MnADDI, RegA0, RegSP, RegNone, 16), true, MnADDI},        // c.addi4spn
		{mk(MnADDI, RegA0, RegA1, RegNone, 5), false, 0},             // rd != rs1
		{mk(MnADDI, RegA0, RegA0, RegNone, 100), false, 0},           // imm too big
		{mk(MnJAL, X0, RegNone, RegNone, 2046), true, MnJAL},         // c.j
		{mk(MnJAL, X0, RegNone, RegNone, 2048), false, 0},            // out of c.j range
		{mk(MnJAL, RegRA, RegNone, RegNone, 100), false, 0},          // no c.jal on RV64
		{mk(MnJALR, X0, RegRA, RegNone, 0), true, MnJALR},            // c.jr (ret)
		{mk(MnJALR, RegRA, RegT0, RegNone, 0), true, MnJALR},         // c.jalr
		{mk(MnJALR, RegRA, RegT0, RegNone, 4), false, 0},             // nonzero offset
		{mk(MnBEQ, RegNone, RegA0, X0, 100), true, MnBEQ},            // c.beqz
		{mk(MnBNE, RegNone, RegA0, X0, -100), true, MnBNE},           // c.bnez
		{mk(MnBEQ, RegNone, RegT3, X0, 4), false, 0},                 // t3 not a c-reg
		{mk(MnLD, RegA0, RegSP, RegNone, 40), true, MnLD},            // c.ldsp
		{mk(MnSD, RegNone, RegSP, RegRA, 0), true, MnSD},             // c.sdsp
		{mk(MnLW, RegA0, RegA1, RegNone, 4), true, MnLW},             // c.lw
		{mk(MnFLD, F8, RegA0, RegNone, 8), true, MnFLD},              // c.fld
		{mk(MnADD, RegA0, X0, RegA1, 0), true, MnADD},                // c.mv
		{mk(MnADD, RegA0, RegA0, RegA1, 0), true, MnADD},             // c.add
		{mk(MnSUB, RegA0, RegA0, RegA1, 0), true, MnSUB},             // c.sub
		{mk(MnEBREAK, RegNone, RegNone, RegNone, 0), true, MnEBREAK}, // c.ebreak
		{mk(MnSLLI, RegA0, RegA0, RegNone, 12), true, MnSLLI},        // c.slli
		{mk(MnLUI, RegT0, RegNone, RegNone, 1), true, MnLUI},         // c.lui
		{mk(MnLUI, RegT0, RegNone, RegNone, 0x12345), false, 0},      // too wide
		{mk(MnXOR, RegA0, RegA0, RegA1, 0), true, MnXOR},             // c.xor
		{mk(MnADDW, RegA0, RegA0, RegA1, 0), true, MnADDW},           // c.addw
		{mk(MnADDIW, RegA0, RegA0, RegNone, 1), true, MnADDIW},       // c.addiw
	}
	for _, c := range cases {
		h, ok := Compress(c.in)
		if ok != c.wantOK {
			t.Errorf("Compress(%v) ok=%v, want %v", c.in, ok, c.wantOK)
			continue
		}
		if !ok {
			continue
		}
		back, err := decodeCompressed(h, 0)
		if err != nil {
			t.Errorf("Compress(%v) = 0x%04x, which fails decode: %v", c.in, h, err)
			continue
		}
		if back.Mn != c.wantBack {
			t.Errorf("Compress(%v) decodes to %v, want %v", c.in, back.Mn, c.wantBack)
		}
		if back.Imm != c.in.Imm {
			t.Errorf("Compress(%v) imm round trip = %d", c.in, back.Imm)
		}
	}
}

func TestDecodeLengths(t *testing.T) {
	// addi a0, a0, 1 (32-bit)
	w := MustEncode(mk(MnADDI, RegA0, RegA0, RegNone, 1))
	b := []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)}
	inst, err := Decode(b, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Len != 4 || inst.Size() != 4 || inst.Next() != 0x1004 {
		t.Errorf("32-bit decode: Len=%d Next=%#x", inst.Len, inst.Next())
	}
	// c.nop (16-bit)
	inst, err = Decode([]byte{0x01, 0x00}, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Len != 2 || inst.Next() != 0x1002 || !inst.Compressed {
		t.Errorf("16-bit decode: Len=%d Next=%#x compressed=%v", inst.Len, inst.Next(), inst.Compressed)
	}
	if _, err := Decode([]byte{0x01}, 0); err != ErrTruncated {
		t.Errorf("1-byte decode err = %v, want ErrTruncated", err)
	}
	if _, err := Decode([]byte{0x03, 0x00, 0x01}, 0); err != ErrTruncated {
		t.Errorf("3-byte 32-bit decode err = %v, want ErrTruncated", err)
	}
	if _, err := Decode([]byte{0x00, 0x00}, 0); err == nil {
		t.Error("all-zero halfword decoded; want illegal")
	}
}

func TestTargets(t *testing.T) {
	j := mk(MnJAL, X0, RegNone, RegNone, -16)
	j.Addr = 0x1000
	if tgt, ok := j.Target(); !ok || tgt != 0x0ff0 {
		t.Errorf("jal target = %#x, %v", tgt, ok)
	}
	b := mk(MnBNE, RegNone, RegA0, RegA1, 32)
	b.Addr = 0x2000
	if tgt, ok := b.Target(); !ok || tgt != 0x2020 {
		t.Errorf("branch target = %#x, %v", tgt, ok)
	}
	r := mk(MnJALR, X0, RegRA, RegNone, 0)
	if _, ok := r.Target(); ok {
		t.Error("jalr should have no static target")
	}
}

func TestRegsReadWritten(t *testing.T) {
	cases := []struct {
		in        Inst
		wantRead  []Reg
		wantWrite []Reg
	}{
		{mk(MnADD, RegA0, RegA1, RegA2, 0), []Reg{RegA1, RegA2}, []Reg{RegA0}},
		{mk(MnADDI, RegA0, RegA1, RegNone, 1), []Reg{RegA1}, []Reg{RegA0}},
		{mk(MnADD, X0, RegA1, RegA2, 0), []Reg{RegA1, RegA2}, nil}, // x0 write dropped
		{mk(MnSD, RegNone, RegSP, RegRA, 0), []Reg{RegSP, RegRA}, nil},
		{mk(MnLD, RegRA, RegSP, RegNone, 0), []Reg{RegSP}, []Reg{RegRA}},
		{mk(MnJAL, RegRA, RegNone, RegNone, 8), []Reg{RegPC}, []Reg{RegRA, RegPC}},
		{mk(MnJALR, X0, RegRA, RegNone, 0), []Reg{RegRA, RegPC}, []Reg{RegPC}},
		{mk(MnBEQ, RegNone, RegA0, RegA1, 8), []Reg{RegA0, RegA1, RegPC}, []Reg{RegPC}},
		{mk(MnLUI, RegT0, RegNone, RegNone, 1), nil, []Reg{RegT0}},
		{mk(MnFMULD, F0, F1, F2, 0), []Reg{F1, F2}, []Reg{F0}},
		{mk(MnFMVXD, RegA0, F0, RegNone, 0), []Reg{F0}, []Reg{RegA0}},
	}
	for _, c := range cases {
		r, w := c.in.RegsRead(), c.in.RegsWritten()
		if !r.Equal(NewRegSet(c.wantRead...)) {
			t.Errorf("%v RegsRead = %v, want %v", c.in, r, NewRegSet(c.wantRead...))
		}
		if !w.Equal(NewRegSet(c.wantWrite...)) {
			t.Errorf("%v RegsWritten = %v, want %v", c.in, w, NewRegSet(c.wantWrite...))
		}
	}
}

func TestFMARegsRead(t *testing.T) {
	in := Inst{Mn: MnFMADDD, Rd: F0, Rs1: F1, Rs2: F2, Rs3: F3, RM: RMDyn}
	if r := in.RegsRead(); !r.Equal(NewRegSet(F1, F2, F3)) {
		t.Errorf("fmadd.d reads %v", r)
	}
}

func TestMemWidth(t *testing.T) {
	cases := []struct {
		mn   Mnemonic
		want int
	}{
		{MnLB, 1}, {MnLHU, 2}, {MnLW, 4}, {MnLD, 8}, {MnSB, 1}, {MnSD, 8},
		{MnFLW, 4}, {MnFSD, 8}, {MnAMOADDW, 4}, {MnLRD, 8}, {MnADD, 0}, {MnJAL, 0},
	}
	for _, c := range cases {
		if got := (Inst{Mn: c.mn}).MemWidth(); got != c.want {
			t.Errorf("%v MemWidth = %d, want %d", c.mn, got, c.want)
		}
	}
}

func TestCategories(t *testing.T) {
	cases := []struct {
		mn   Mnemonic
		want Category
	}{
		{MnADD, CatArith}, {MnLD, CatLoad}, {MnSD, CatStore}, {MnBEQ, CatBranch},
		{MnJAL, CatJAL}, {MnJALR, CatJALR}, {MnAMOADDW, CatAMO},
		{MnFENCE, CatFence}, {MnECALL, CatSystem}, {MnCSRRW, CatSystem},
		{MnFMULD, CatArith},
	}
	for _, c := range cases {
		if got := c.mn.Cat(); got != c.want {
			t.Errorf("%v Cat = %v, want %v", c.mn, got, c.want)
		}
	}
}

func TestMnemonicExtensions(t *testing.T) {
	cases := []struct {
		mn  Mnemonic
		ext ExtSet
	}{
		{MnADD, ExtI}, {MnMUL, ExtM}, {MnLRW, ExtA}, {MnFADDS, ExtF},
		{MnFADDD, ExtD}, {MnCSRRW, ExtZicsr}, {MnFENCEI, ExtZifencei},
	}
	for _, c := range cases {
		if got := c.mn.Ext(); got != c.ext {
			t.Errorf("%v Ext = %v, want %v", c.mn, got, c.ext)
		}
	}
}

func TestAllMnemonicsHaveNames(t *testing.T) {
	seen := map[string]Mnemonic{}
	for m := Mnemonic(1); m < Mnemonic(NumMnemonics()); m++ {
		name := m.String()
		if name == "" || name == "invalid" {
			t.Errorf("mnemonic %d has no name", m)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("duplicate name %q for %d and %d", name, prev, m)
		}
		seen[name] = m
		got, ok := LookupMnemonic(name)
		if !ok || got != m {
			t.Errorf("LookupMnemonic(%q) = %v, %v", name, got, ok)
		}
	}
}

func TestEncodeBytes(t *testing.T) {
	i := mk(MnADDI, RegA0, RegA0, RegNone, 1)
	b, err := EncodeBytes(i)
	if err != nil || len(b) != 4 {
		t.Fatalf("EncodeBytes: %v, len %d", err, len(b))
	}
	i.Compressed = true
	b, err = EncodeBytes(i)
	if err != nil || len(b) != 2 {
		t.Fatalf("EncodeBytes compressed: %v, len %d", err, len(b))
	}
	// An instruction with no compressed form falls back to 4 bytes.
	i2 := mk(MnXORI, RegA0, RegA0, RegNone, 1)
	i2.Compressed = true
	b, err = EncodeBytes(i2)
	if err != nil || len(b) != 4 {
		t.Fatalf("EncodeBytes xori: %v, len %d", err, len(b))
	}
}

func TestEncodeRangeErrors(t *testing.T) {
	bad := []Inst{
		mk(MnADDI, RegA0, RegA0, RegNone, 4096),
		mk(MnADDI, RegA0, RegA0, RegNone, -2049),
		mk(MnJAL, X0, RegNone, RegNone, 1<<21),
		mk(MnJAL, X0, RegNone, RegNone, 3), // misaligned
		mk(MnBEQ, RegNone, RegA0, RegA1, 5000),
		mk(MnSLLI, RegA0, RegA0, RegNone, 64),
		mk(MnSLLIW, RegA0, RegA0, RegNone, 32),
		mk(MnSD, RegNone, RegA0, RegA1, 3000),
	}
	for _, i := range bad {
		if _, err := Encode(i); err == nil {
			t.Errorf("Encode(%v) succeeded; want range error", i)
		}
	}
}

func TestDisassemblyStrings(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{mk(MnADDI, RegA0, RegA1, RegNone, -4), "addi a0, a1, -4"},
		{mk(MnLD, RegRA, RegSP, RegNone, 8), "ld ra, 8(sp)"},
		{mk(MnSD, RegNone, RegSP, RegRA, 8), "sd ra, 8(sp)"},
		{mk(MnJAL, RegRA, RegNone, RegNone, 64), "jal ra, 64"},
		{mk(MnJALR, X0, RegRA, RegNone, 0), "jalr zero, 0(ra)"},
		{mk(MnBEQ, RegNone, RegA0, RegA1, -8), "beq a0, a1, -8"},
		{mk(MnADD, RegA0, RegA1, RegA2, 0), "add a0, a1, a2"},
		{mk(MnECALL, RegNone, RegNone, RegNone, 0), "ecall"},
		{mk(MnFADDD, F0, F1, F2, 0), "fadd.d ft0, ft1, ft2"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// TestDecodeStream decodes a little program byte stream with mixed widths.
func TestDecodeStream(t *testing.T) {
	var buf []byte
	want := []Mnemonic{MnADDI, MnADDI, MnADD, MnJALR}
	emit := func(i Inst, compressed bool) {
		i.Compressed = compressed
		b, err := EncodeBytes(i)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, b...)
	}
	emit(mk(MnADDI, RegSP, RegSP, RegNone, -16), true) // compresses
	emit(mk(MnADDI, RegA0, RegA1, RegNone, 7), false)
	emit(mk(MnADD, RegA0, RegA0, RegA0, 0), true) // c.add
	emit(mk(MnJALR, X0, RegRA, RegNone, 0), true) // c.jr
	addr := uint64(0x10000)
	var got []Mnemonic
	for off := 0; off < len(buf); {
		inst, err := Decode(buf[off:], addr+uint64(off))
		if err != nil {
			t.Fatalf("decode at +%d: %v", off, err)
		}
		got = append(got, inst.Mn)
		off += inst.Len
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d instructions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("inst %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// Randomized structured round trip: build random valid instructions from the
// encode table and check decode inverts encode.
func TestStructuredRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mns := []Mnemonic{
		MnADDI, MnSLTI, MnXORI, MnORI, MnANDI, MnADD, MnSUB, MnSLL, MnXOR,
		MnSRL, MnSRA, MnOR, MnAND, MnLB, MnLH, MnLW, MnLD, MnSB, MnSH, MnSW,
		MnSD, MnBEQ, MnBNE, MnBLT, MnBGE, MnBLTU, MnBGEU, MnJAL, MnJALR,
		MnLUI, MnAUIPC, MnMUL, MnDIV, MnADDW, MnSUBW, MnADDIW,
	}
	for n := 0; n < 5000; n++ {
		mn := mns[rng.Intn(len(mns))]
		in := Inst{Mn: mn, Rd: XReg(uint32(rng.Intn(32))), Rs1: XReg(uint32(rng.Intn(32))), Rs2: XReg(uint32(rng.Intn(32))), Rs3: RegNone}
		switch mn {
		case MnJAL:
			in.Imm = int64(rng.Intn(1<<20)-(1<<19)) &^ 1
		case MnBEQ, MnBNE, MnBLT, MnBGE, MnBLTU, MnBGEU:
			in.Imm = int64(rng.Intn(8192)-4096) &^ 1
		case MnLUI, MnAUIPC:
			in.Imm = int64(rng.Intn(1<<20) - (1 << 19))
		case MnADD, MnSUB, MnSLL, MnXOR, MnSRL, MnSRA, MnOR, MnAND,
			MnMUL, MnDIV, MnADDW, MnSUBW:
			in.Imm = 0 // R-type has no immediate
		default:
			in.Imm = int64(rng.Intn(4096) - 2048)
		}
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		out, err := decode32(w, 0)
		if err != nil {
			t.Fatalf("decode32(0x%08x from %v): %v", w, in, err)
		}
		if out.Mn != in.Mn || out.Imm != in.Imm {
			t.Fatalf("round trip %v: got %v imm=%d want imm=%d", in.Mn, out.Mn, out.Imm, in.Imm)
		}
	}
}
