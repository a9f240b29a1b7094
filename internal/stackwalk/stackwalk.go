// Package stackwalk is the StackwalkerAPI analog (paper Section 3.2.7): it
// collects call stacks from a stopped process. Like Dyninst's, it has a
// plugin architecture of "frame steppers", each able to step through one
// style of frame; the walker tries them in order.
//
// The paper anticipates exactly the RISC-V difficulty these steppers
// divide: the ABI designates x8 as the frame pointer, but most compilers
// use it as a general register and manage frames purely through the stack
// pointer. The FramePointerStepper handles the former; the
// StackHeightStepper uses the dataflow package's stack-height and
// return-address-location analysis to handle the latter (and leaf frames
// where the return address is still in ra). Frames in generated code are
// attributed through the instrumenting engine's patch.Provenance table.
package stackwalk

import (
	"fmt"

	"rvdyn/internal/dataflow"
	"rvdyn/internal/parse"
	"rvdyn/internal/patch"
	"rvdyn/internal/riscv"
)

// Frame is one walked stack frame.
type Frame struct {
	PC uint64 // program counter (return address for outer frames)
	SP uint64 // stack pointer on entry to this frame's function
	FP uint64 // frame pointer register value, when tracked

	FuncName string
	Func     *parse.Function
	Stepper  string // which stepper produced the *next* (caller) frame

	gen patch.Span // the generated code PC was translated from, if any
}

func (f Frame) String() string {
	name := f.FuncName
	if name == "" {
		name = "?"
	}
	return fmt.Sprintf("%s pc=%#x sp=%#x", name, f.PC, f.SP)
}

// Target abstracts the stopped thread the walker inspects (satisfied by
// proc.Process).
type Target interface {
	GetReg(riscv.Reg) uint64
	ReadMem(addr uint64, n int) ([]byte, error)
}

// Stepper steps from a frame to its caller's frame.
type Stepper interface {
	Name() string
	// Step returns the caller frame. ok=false means this stepper cannot
	// handle the frame (the walker tries the next plugin).
	Step(w *Walker, f Frame, innermost bool) (Frame, bool)
}

// Provenance maps generated-code PCs to the original state they run in
// (satisfied by *patch.Provenance).
type Provenance interface {
	Lookup(pc uint64) (patch.Span, bool)
}

// Walker drives the steppers over a target.
type Walker struct {
	CFG      *parse.CFG
	Target   Target
	Steppers []Stepper
	// Prov attributes frames in generated code (Dyninst's stack walker is
	// instrumentation-aware in the same fashion); nil when there is none.
	Prov Provenance

	stackCache map[uint64]*dataflow.StackResult
}

// New builds a walker with the default stepper stack: the precise
// stack-height stepper first, the frame-pointer convention second. prov
// is the provenance table of the target's generated code, or nil.
func New(cfg *parse.CFG, tgt Target, prov Provenance) *Walker {
	return &Walker{
		CFG:    cfg,
		Target: tgt,
		Prov:   prov,
		Steppers: []Stepper{
			&StackHeightStepper{},
			&FramePointerStepper{},
		},
		stackCache: map[uint64]*dataflow.StackResult{},
	}
}

func (w *Walker) stackFor(fn *parse.Function) *dataflow.StackResult {
	sr, ok := w.stackCache[fn.Entry]
	if !ok {
		sr = dataflow.StackHeights(fn)
		w.stackCache[fn.Entry] = sr
	}
	return sr
}

func (w *Walker) read64(addr uint64) (uint64, bool) {
	b, err := w.Target.ReadMem(addr, 8)
	if err != nil {
		return 0, false
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, true
}

const maxFrames = 256

// Walk collects the call stack, innermost frame first.
func (w *Walker) Walk() ([]Frame, error) {
	cur := Frame{
		PC: w.Target.GetReg(riscv.RegPC),
		SP: w.Target.GetReg(riscv.RegSP),
		FP: w.Target.GetReg(riscv.RegFP),
	}
	if !w.translate(&cur) {
		return nil, nil
	}
	var out []Frame
	innermost := true
	for len(out) < maxFrames {
		if fn, ok := w.CFG.FuncContaining(cur.PC); ok {
			cur.Func = fn
			cur.FuncName = fn.Name
		}
		// The process entry function has no caller: stop here.
		if cur.Func != nil && w.CFG.Symtab != nil {
			if _, ok := cur.Func.BlockContaining(w.CFG.Symtab.Entry); ok {
				out = append(out, cur)
				break
			}
		}
		stepped := false
		var next Frame
		for _, s := range w.Steppers {
			if n, ok := s.Step(w, cur, innermost); ok {
				cur.Stepper = s.Name()
				next, stepped = n, true
				break
			}
		}
		out = append(out, cur)
		if !stepped {
			break
		}
		// Terminate on an obviously bogus caller (walked off the program).
		if next.PC == 0 || next.PC == cur.PC && next.SP == cur.SP {
			break
		}
		if !w.translate(&next) {
			break
		}
		if _, known := w.CFG.FuncContaining(next.PC); !known {
			break
		}
		cur = next
		innermost = false
	}
	return out, nil
}

// translate moves a frame in generated code to the original instruction it
// runs before; false for code matching no original state (a DBI stub), where
// the walk ends.
func (w *Walker) translate(f *Frame) bool {
	if w.Prov == nil {
		return true
	}
	if s, ok := w.Prov.Lookup(f.PC); ok {
		if s.Kind == patch.KindStub {
			return false
		}
		f.PC, f.gen = s.Orig, s
	}
	return true
}

// ---------------------------------------------------------------------------
// StackHeightStepper

// StackHeightStepper recovers the caller frame from the dataflow package's
// stack-height and RA-location analyses: it needs no frame pointer, which
// is the common case on RISC-V. In generated code it undoes the code's sp
// adjustment, and reads ra from where the code saved it.
type StackHeightStepper struct{}

func (*StackHeightStepper) Name() string { return "stack-height" }

func (s *StackHeightStepper) Step(w *Walker, f Frame, innermost bool) (Frame, bool) {
	if f.Func == nil {
		return Frame{}, false
	}
	sr := w.stackFor(f.Func)
	h, ok := sr.HeightAt(f.PC)
	if !ok {
		return Frame{}, false
	}
	origSP := f.SP - uint64(f.gen.SP) // generated code runs below the original sp
	entrySP := origSP - uint64(h)     // h <= 0 inside a frame

	raLoc, ok := sr.RALocAt(f.PC)
	if !ok {
		return Frame{}, false
	}
	var ra uint64
	if raLoc.InReg && f.gen.RA == 0 {
		// Only trustworthy for the innermost frame: outer frames' ra was
		// clobbered by deeper calls.
		if !innermost {
			return Frame{}, false
		}
		ra = w.Target.GetReg(riscv.RegRA)
	} else {
		slot := entrySP + uint64(raLoc.Slot)
		if raLoc.InReg {
			slot = origSP + uint64(f.gen.RA) // saved by generated code
		}
		v, ok := w.read64(slot)
		if !ok {
			return Frame{}, false
		}
		ra = v
	}
	if ra == 0 {
		return Frame{}, false
	}
	return Frame{PC: ra, SP: entrySP, FP: f.FP}, true
}

// ---------------------------------------------------------------------------
// FramePointerStepper

// FramePointerStepper follows the ABI frame-pointer convention: s0/fp
// points just above the frame, with the return address at fp-8 and the
// saved caller fp at fp-16 (the layout gcc emits with
// -fno-omit-frame-pointer).
type FramePointerStepper struct{}

func (*FramePointerStepper) Name() string { return "frame-pointer" }

func (s *FramePointerStepper) Step(w *Walker, f Frame, innermost bool) (Frame, bool) {
	fp := f.FP
	if fp == 0 || fp&7 != 0 {
		return Frame{}, false
	}
	ra, ok := w.read64(fp - 8)
	if !ok || ra == 0 {
		return Frame{}, false
	}
	oldFP, ok := w.read64(fp - 16)
	if !ok {
		return Frame{}, false
	}
	// Sanity: the return address must land in known code, and the frame
	// chain must grow upward.
	if _, known := w.CFG.FuncContaining(ra); !known {
		return Frame{}, false
	}
	if oldFP != 0 && oldFP <= fp {
		return Frame{}, false
	}
	return Frame{PC: ra, SP: fp, FP: oldFP}, true
}
