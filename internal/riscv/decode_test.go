package riscv

import (
	"errors"
	"hash/fnv"
	"testing"
)

// The pinned values of TestDecodeSweep. They were computed by this test on
// a checkout of the commit before decode32 was derived from encTable, with
// the hand-written switch decoder and before decode.go was touched; they
// hold the derived decoder bit-identical to it.
const (
	sweepLegal = 1321786
	sweepHash  = 0x68754c30ee99151e
)

// TestDecodeSweep decodes every combination of the opcode, funct3, funct7
// and rs2 fields, each with four rd/rs1 pairs: 16,777,216 words. It pins
// how many are legal and an FNV-64a hash over every legal word and its
// decoded fields; an illegal word must report ErrIllegal and MnInvalid.
func TestDecodeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("16.7M-word decode sweep; CI runs it in full")
	}
	pairs := [4][2]uint32{{0, 0}, {1, 2}, {10, 31}, {31, 5}}
	h := fnv.New64a()
	buf := make([]byte, 0, 32)
	legal := 0
	for hi := uint32(0); hi < 1<<12; hi++ { // funct7 | rs2
		for mid := uint32(0); mid < 1<<10; mid++ { // funct3 | opcode
			f3, opcode := mid>>7, mid&0x7f
			for _, p := range pairs {
				w := hi<<20 | p[1]<<15 | f3<<12 | p[0]<<7 | opcode
				inst, err := decode32(w, 0x1000)
				if err != nil {
					if !errors.Is(err, ErrIllegal) || inst.Mn != MnInvalid {
						t.Fatalf("0x%08x: err %v, mnemonic %v", w, err, inst.Mn)
					}
					continue
				}
				legal++
				h.Write(appendDecoded(buf[:0], w, inst))
			}
		}
	}
	if got := h.Sum64(); legal != sweepLegal || got != sweepHash {
		t.Errorf("sweep: %d legal words, hash %#x; want %d, %#x", legal, got, sweepLegal, uint64(sweepHash))
	}
}

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// TestDecodeIndexCollisionPanics: indexing a row that some word would match
// along with an already-indexed row panics; a row on free bits does not.
func TestDecodeIndexCollisionPanics(t *testing.T) {
	fresh := func() *decodeIndex {
		x := new(decodeIndex)
		for mn, spec := range encTable {
			if spec.form != formNone {
				x.add(Mnemonic(mn), spec)
			}
		}
		return x
	}
	for _, c := range []struct {
		name    string
		spec    encSpec
		collide bool
	}{
		{"add's funct fields", encSpec{form: formR, opcode: opOp, f3: 0, f7: 0}, true},
		{"rounding-mode row over fsgnj.d", encSpec{form: formR, opcode: opFP, f7: 0b0010001, hasRM: true}, true},
		{"I-type over R-type and", encSpec{form: formI, opcode: opOp, f3: 7}, true},
		{"U-type over all of opcode LOAD", encSpec{form: formU, opcode: opLoad}, true},
		{"dbi.jt's custom-0 slot", encSpec{form: formI, opcode: opCustom0, f3: 1}, true},
		{"unused custom-0 slot", encSpec{form: formI, opcode: opCustom0, f3: 2}, false},
		{"unused OP funct7", encSpec{form: formR, opcode: opOp, f3: 0, f7: 0b1111111}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); (r != nil) != c.collide {
					t.Errorf("panic = %v, want a panic: %v", r, c.collide)
				}
			}()
			fresh().add(MnInvalid, c.spec)
		})
	}
}

// TestIllegalErrorText: an illegal word's error prints the same text the
// decoders always printed and still matches ErrIllegal.
func TestIllegalErrorText(t *testing.T) {
	for _, c := range []struct {
		b    []byte
		want string
	}{
		{[]byte{0xff, 0xff, 0xff, 0xff}, "riscv: illegal instruction: 0xffffffff at 0x1234"},
		{[]byte{0x00, 0x00}, "riscv: illegal instruction: compressed 0x0000 at 0x1234"},
	} {
		_, err := Decode(c.b, 0x1234)
		if !errors.Is(err, ErrIllegal) || err.Error() != c.want {
			t.Errorf("% x: err %q, want %q matching ErrIllegal", c.b, err, c.want)
		}
	}
}
