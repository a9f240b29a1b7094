package patch

import (
	"sort"

	"rvdyn/internal/riscv"
)

// SpanKind says what a span of generated code is.
type SpanKind uint8

const (
	KindGap      SpanKind = iota // no generated code
	KindOrig                     // a relocated instruction with its expansion, or a DBI group copy's first instruction
	KindSnippet                  // a snippet body, before an instruction or on a not-taken edge
	KindSpill                    // an sp adjustment, or a register save or restore below the original sp
	KindEdgeStub                 // an out-of-line edge stub, through its closing jump
	KindProbe                    // a DBI probe body spliced in at a group bound, with its accumulator
	KindStub                     // DBI code past a copy's first instruction: no original state matches it
)

// Span is one run of generated code. It runs in the original program's
// state just before the instruction at Orig, with sp lower by -SP; when RA
// is nonzero the code has saved the original ra RA bytes from the original
// sp. A span ends where the next one in its table begins.
type Span struct {
	Lo     uint64 // first generated address
	Orig   uint64
	SP, RA int16
	Kind   SpanKind
	// Bound marks Lo as a DBI translation-group bound, the one address of
	// the group at which the compensated counters match the native run.
	Bound bool
}

// Provenance is the table of spans one engine's generated code occupies,
// sorted by address: which original instruction, and which frame, each
// generated PC belongs to. Engines append code in address order (live
// patching relocates each function above the last; the DBI code cache is
// bump-allocated), and code written over code replaces its spans.
type Provenance struct {
	spans  []Span
	sp, ra int16 // the generated frame open at the end of the table
}

// Lookup returns the span holding pc; false outside generated code.
func (p *Provenance) Lookup(pc uint64) (Span, bool) {
	i := sort.Search(len(p.spans), func(i int) bool { return p.spans[i].Lo > pc }) - 1
	if i < 0 || p.spans[i].Kind == KindGap {
		return Span{}, false
	}
	return p.spans[i], true
}

// Add appends a span that runs in the original frame: a copied
// instruction, a DBI stub, or a KindGap ending a run of code.
func (p *Provenance) Add(s Span) {
	p.sp, p.ra = 0, 0
	p.push(s)
}

// Gen appends the span of the generated instruction in at s.Lo, of kind
// KindSpill when in adjusts sp or moves a register to or from below the
// original sp. SP and RA follow the addi sp, sp, imm and sd ra instructions
// generated so far.
func (p *Provenance) Gen(s Span, in riscv.Inst) {
	if s.Bound {
		p.sp, p.ra = 0, 0
	}
	s.SP, s.RA = p.sp, p.ra
	switch {
	case in.Mn == riscv.MnADDI && in.Rd == riscv.RegSP && in.Rs1 == riscv.RegSP:
		s.Kind = KindSpill
		if p.sp += int16(in.Imm); p.ra < p.sp {
			p.ra = 0 // popped with its frame
		}
	case p.sp < 0 && in.Rs1 == riscv.RegSP && (in.IsStore() || in.IsLoad()):
		s.Kind = KindSpill
		if in.Mn == riscv.MnSD && in.Rs2 == riscv.RegRA {
			p.ra = p.sp + int16(in.Imm)
		}
	}
	p.push(s)
}

// push drops every span at or above s.Lo, then appends s unless it
// continues the last span.
func (p *Provenance) push(s Span) {
	n := len(p.spans)
	for n > 0 && p.spans[n-1].Lo >= s.Lo {
		n--
	}
	p.spans = p.spans[:n]
	if n > 0 {
		if l := p.spans[n-1]; !s.Bound && l.Kind == s.Kind && l.Orig == s.Orig && l.SP == s.SP && l.RA == s.RA {
			return
		}
	}
	p.spans = append(p.spans, s)
}
