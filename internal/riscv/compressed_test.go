package riscv

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"sort"
	"testing"
)

// The pinned values of TestDecodeSweep16 and TestCompressSweep. They were
// computed by these tests on a checkout of the commit before the compressed
// forms became one table, with the two hand-written switches: 46,680 legal
// halfwords, hash 0xdf06cfe55d67082a, 334 not produced. The table
// reproduced them; then c.lui x0, nzimm became the HINT the spec makes it,
// adding its 63 halfwords (TestCLuiX0IsHint) and nothing else.
const (
	sweep16Legal      = 46743
	sweep16Hash       = 0xc24b5c82d8617d0d
	sweep16Unproduced = 397 // 394 HINTs, and 3 c.addi16sp halfwords whose values c.addi takes
	compressAccepted  = 1298
	compressHash      = 0x44ff351aab9ec17d
)

// TestDecodeSweep16 decodes every halfword. It pins how many are legal
// compressed instructions, an FNV-64a hash over each legal halfword and its
// decoded fields (the fields TestDecodeSweep hashes), and how many legal
// halfwords Compress does not give back from their own expansion. An
// illegal halfword must report ErrIllegal and MnInvalid; quadrant 3 is the
// low half of a 32-bit instruction and must report ErrTruncated.
func TestDecodeSweep16(t *testing.T) {
	h := fnv.New64a()
	buf := make([]byte, 0, 32)
	legal, unproduced := 0, 0
	for w := uint32(0); w < 1<<16; w++ {
		inst, err := Decode([]byte{byte(w), byte(w >> 8)}, 0x1000)
		switch {
		case w&3 == 3:
			if err != ErrTruncated {
				t.Fatalf("0x%04x: err %v, want ErrTruncated", w, err)
			}
			continue
		case err != nil:
			if !errors.Is(err, ErrIllegal) || inst.Mn != MnInvalid {
				t.Fatalf("0x%04x: err %v, mnemonic %v", w, err, inst.Mn)
			}
			continue
		}
		legal++
		h.Write(appendDecoded(buf[:0], w, inst))
		if back, ok := Compress(inst); !ok || uint32(back) != w {
			unproduced++
		}
	}
	if got := h.Sum64(); legal != sweep16Legal || got != sweep16Hash || unproduced != sweep16Unproduced {
		t.Errorf("sweep: %d legal halfwords, hash %#x, %d not produced by Compress; want %d, %#x, %d",
			legal, got, unproduced, sweep16Legal, uint64(sweep16Hash), sweep16Unproduced)
	}
}

// appendDecoded appends the encoding w and the fields decoded from it to
// buf, for the sweep hashes.
func appendDecoded(buf []byte, w uint32, inst Inst) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, w)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(inst.Mn))
	buf = append(buf, byte(inst.Rd), byte(inst.Rs1), byte(inst.Rs2), byte(inst.Rs3))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(inst.Imm))
	buf = binary.LittleEndian.AppendUint16(buf, inst.CSR)
	buf = append(buf, inst.RM, b2u8(inst.Aq), b2u8(inst.Rl), byte(inst.Len), b2u8(inst.Compressed))
	buf = binary.LittleEndian.AppendUint64(buf, inst.Addr)
	return binary.LittleEndian.AppendUint32(buf, inst.Raw)
}

// compressImms returns the immediates TestCompressSweep tries: 0, and the
// edges of every compressed form's range, each ±1 and ± the form's
// alignment. The ranges are written out from the RVC spec here, apart from
// the table they check.
func compressImms() []int64 {
	seen := map[int64]bool{0: true}
	for _, r := range []struct{ lo, hi, align int64 }{
		{-32, 31, 1},     // c.addi, c.li, c.addiw, c.andi, c.lui
		{-512, 496, 16},  // c.addi16sp
		{4, 1020, 4},     // c.addi4spn
		{1, 63, 1},       // c.slli, c.srli, c.srai
		{-2048, 2046, 2}, // c.j
		{-256, 254, 2},   // c.beqz, c.bnez
		{0, 124, 4},      // c.lw, c.sw
		{0, 248, 8},      // c.ld, c.sd, c.fld, c.fsd
		{0, 252, 4},      // c.lwsp, c.swsp
		{0, 504, 8},      // c.ldsp, c.sdsp, c.fldsp, c.fsdsp
	} {
		for _, edge := range []int64{r.lo, r.hi} {
			for _, d := range []int64{-r.align, -1, 0, 1, r.align} {
				seen[edge+d] = true
			}
		}
	}
	imms := make([]int64, 0, len(seen))
	for v := range seen {
		imms = append(imms, v)
	}
	sort.Slice(imms, func(a, b int) bool { return imms[a] < imms[b] })
	return imms
}

// TestCompressSweep runs Compress over every mnemonic it handles, with
// registers from both files in each operand the 32-bit form has (RegNone
// in the others) and the immediates of compressImms; instructions with no
// immediate are tried with 0 only. Inputs that CheckRegFiles rejects are
// skipped. It pins how many inputs compress and an FNV-64a hash over each
// accepted input and its halfword, and every halfword must decode back to
// the input's mnemonic, operands and immediate.
func TestCompressSweep(t *testing.T) {
	regs := []Reg{X0, RegRA, RegSP, X7, X8, X15, X16, F7, F8, F15, F16}
	none := []Reg{RegNone}
	imms := compressImms()
	h := fnv.New64a()
	buf := make([]byte, 0, 32)
	accepted := 0
	for _, mn := range []Mnemonic{
		MnADDI, MnADDIW, MnLUI, MnSLLI, MnSRLI, MnSRAI, MnANDI,
		MnADD, MnSUB, MnXOR, MnOR, MnAND, MnSUBW, MnADDW,
		MnJAL, MnJALR, MnBEQ, MnBNE, MnEBREAK,
		MnLW, MnLD, MnFLD, MnSW, MnSD, MnFSD,
	} {
		rds, rs1s, rs2s, ims := regs, regs, regs, imms
		switch encTable[mn].form {
		case formR:
			ims = []int64{0}
		case formI, formIShift:
			rs2s = none
		case formS, formB:
			rds = none
		case formU, formJ:
			rs1s, rs2s = none, none
		case formSys:
			rds, rs1s, rs2s, ims = none, none, none, []int64{0}
		default:
			t.Fatalf("%v: unexpected form %d", mn, encTable[mn].form)
		}
		for _, rd := range rds {
			for _, rs1 := range rs1s {
				for _, rs2 := range rs2s {
					for _, imm := range ims {
						in := Inst{Mn: mn, Rd: rd, Rs1: rs1, Rs2: rs2, Rs3: RegNone, Imm: imm}
						if CheckRegFiles(in) != nil {
							continue
						}
						half, ok := Compress(in)
						if !ok {
							continue
						}
						accepted++
						buf = binary.LittleEndian.AppendUint16(buf[:0], uint16(mn))
						buf = append(buf, byte(rd), byte(rs1), byte(rs2))
						buf = binary.LittleEndian.AppendUint64(buf, uint64(imm))
						buf = binary.LittleEndian.AppendUint16(buf, half)
						h.Write(buf)
						back, err := decodeCompressed(half, 0)
						if err != nil || back.Mn != mn || back.Rd != rd || back.Rs1 != rs1 ||
							back.Rs2 != rs2 || back.Imm != imm {
							t.Errorf("Compress(%v) = 0x%04x, which decodes to %v (err %v)", in, half, back, err)
						}
					}
				}
			}
		}
	}
	if got := h.Sum64(); accepted != compressAccepted || got != compressHash {
		t.Errorf("sweep: %d inputs compress, hash %#x; want %d, %#x", accepted, got, compressAccepted, uint64(compressHash))
	}
}

// TestCLuiX0IsHint: c.lui with rd = x0 and a nonzero immediate is a HINT,
// which decodes as lui x0, imm; with a zero immediate it is reserved.
// Compress never emits it.
func TestCLuiX0IsHint(t *testing.T) {
	for imm := uint32(0); imm < 64; imm++ {
		h := uint16(0b011<<13 | imm>>5<<12 | (imm&31)<<2 | 0b01) // c.lui x0, imm
		inst, err := decodeCompressed(h, 0)
		want := int64(int8(imm<<2) >> 2)
		switch {
		case imm == 0 && err == nil:
			t.Errorf("0x%04x (c.lui x0, 0) decodes as %v; want reserved", h, inst)
		case imm != 0 && (err != nil || inst.Mn != MnLUI || inst.Rd != X0 || inst.Imm != want):
			t.Errorf("0x%04x decodes as %v (err %v); want lui zero, %d", h, inst, err, want)
		}
		if imm != 0 {
			if _, ok := Compress(inst); ok {
				t.Errorf("Compress(%v) emits the HINT", inst)
			}
		}
	}
}

// TestCompressTableOrder: among the forms that hold an instruction,
// Compress takes the first in table order.
func TestCompressTableOrder(t *testing.T) {
	for _, c := range []struct {
		in   Inst
		want uint16
	}{
		{mk(MnADDI, RegSP, RegSP, RegNone, 16), 0x0141}, // c.addi, not c.addi16sp
		{mk(MnADDI, RegSP, RegSP, RegNone, 48), 0x6145}, // c.addi16sp
		{mk(MnADDI, X0, X0, RegNone, 0), 0x0001},        // c.nop
	} {
		if h, ok := Compress(c.in); !ok || h != c.want {
			t.Errorf("Compress(%v) = 0x%04x, %v; want 0x%04x", c.in, h, ok, c.want)
		}
	}
}

// TestCompressRefusesWhatNoFormHolds: an operand from the wrong file, an
// absent operand a form needs and an immediate on a form without one have
// no compressed encoding.
func TestCompressRefusesWhatNoFormHolds(t *testing.T) {
	for _, in := range []Inst{
		mk(MnLW, F8, RegA1, RegNone, 4),   // c.lw takes x8-x15
		mk(MnADD, RegA0, X0, RegNone, 0),  // c.mv needs rs2
		mk(MnADD, RegA0, RegA0, RegA1, 5), // c.add has no immediate
		mk(MnEBREAK, RegNone, RegNone, RegNone, 1),
	} {
		if h, ok := Compress(in); ok {
			t.Errorf("Compress(%v) = 0x%04x; want no compressed form", in, h)
		}
	}
}
