package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/obs"
	"rvdyn/internal/workload"
)

// matmul-bbcount is the paper's Section 4 cell at a size a host can time
// per operation: one operation takes the matmul binary as ELF bytes, puts a
// counter at every block entry of multiply, and runs the result to exit.
// Nearly all of its time is emulation, so emulator changes show here and
// rewriter changes barely do. It has no seeded input: the matrices are the
// workload's own.
const (
	matmulN    = 48
	matmulFunc = "multiply"
)

var matmulSpec = rewriteSpec{funcs: []string{matmulFunc}, points: "blocks", workers: 1}

type matmulInst struct {
	input []byte
	emuM  *emu.Metrics // attached to traced operations
	reg   *obs.Registry
	ref   *matmulRef
	acc   layerAcc
}

// matmulRef is what every operation must reproduce.
type matmulRef struct {
	elf         []byte // the first output; later ones must equal it
	exit        int
	count       uint64 // multiply's block entries in the reference run
	counterAddr uint64
	matCAddr    uint64
	matC        []byte
	// Emulator totals of the uninstrumented and instrumented binaries, for
	// overhead_pct and guest_mips.
	origInstret, origCycles, instCycles uint64
	growth, snippetInsts                float64
}

func setupMatmul(env *runEnv) (instance, error) {
	f, err := env.assemble(workload.MatmulSource(matmulN, 1))
	if err != nil {
		return nil, err
	}
	in, err := f.Write()
	if err != nil {
		return nil, err
	}
	m := &matmulInst{input: in}
	if env.spans != nil {
		m.reg = obs.NewRegistry()
		m.emuM = emu.NewMetrics(m.reg)
	}
	return m, nil
}

func (m *matmulInst) op(_ int, o *opRec) error {
	o.begin()
	s := o.span("elfrv.read")
	f, err := elfrv.Read(m.input)
	s.end()
	if err != nil {
		return err
	}
	r, err := rewrite(o, f, matmulSpec)
	if err != nil {
		return err
	}
	s = o.span("emu.new")
	cpu, err := emu.New(r.file, emu.P550())
	s.end()
	if err != nil {
		return err
	}
	if o.traced() {
		cpu.Obs = m.emuM
	}
	s = o.span("emu.run")
	stop := cpu.Run(0)
	s.end()
	o.done()

	if stop != emu.StopExit {
		return fmt.Errorf("stopped with %v: %v", stop, cpu.LastTrap())
	}
	if o.traced() {
		m.acc.addRewrite(r)
		m.acc.addRun(cpu.Instret, cpu.Cycles)
	}
	if m.ref == nil {
		return nil
	}
	return m.ref.check(r, cpu.ExitCode, cpu)
}

// check compares one operation's output and the end state of its run
// (exit code and memory) with the reference.
func (ref *matmulRef) check(r *rewritten, exit int, mem memReader) error {
	if !bytes.Equal(r.elf, ref.elf) {
		return fmt.Errorf("instrumented ELF differs from the first output")
	}
	if exit != ref.exit {
		return fmt.Errorf("exit code %d, reference %d", exit, ref.exit)
	}
	got, err := readU64(mem, ref.counterAddr)
	if err != nil {
		return err
	}
	if got != ref.count {
		return fmt.Errorf("block counter %d, reference %d", got, ref.count)
	}
	c, err := mem.ReadMem(ref.matCAddr, len(ref.matC))
	if err != nil {
		return err
	}
	if !bytes.Equal(c, ref.matC) {
		return fmt.Errorf("result matrix differs from the reference")
	}
	return nil
}

// reference runs the uninstrumented binary on the reference interpreter,
// counting arrivals at multiply's blocks, and checks its product against a
// plain Go multiply. The first instrumented output must then reproduce the
// exit code and product under both the reference interpreter and the
// emulator, with its counter equal to the arrival count.
func (m *matmulInst) reference() error {
	orig, err := elfrv.Read(m.input)
	if err != nil {
		return err
	}
	r, err := rewrite(nil, orig, matmulSpec)
	if err != nil {
		return err
	}
	refOrig, err := refRun(orig, blockStarts(r.funcs))
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	sym, ok := orig.Symbol("mat_c")
	if !ok {
		return fmt.Errorf("no mat_c symbol")
	}
	want := make([]byte, 0, matmulN*matmulN*8)
	for _, v := range workload.RefMatmul(matmulN) {
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
	}
	matC, err := refOrig.ref.ReadMem(sym.Value, len(want))
	if err != nil {
		return err
	}
	if !bytes.Equal(matC, want) {
		return fmt.Errorf("reference run's product differs from the Go multiply")
	}
	ref := &matmulRef{
		elf: r.elf, exit: refOrig.exit, count: refOrig.visits[matmulFunc],
		counterAddr: r.counters[matmulFunc], matCAddr: sym.Value, matC: matC,
		growth: 100 * (float64(len(r.elf))/float64(len(m.input)) - 1),
	}
	if ref.snippetInsts, err = r.snippetInsts(); err != nil {
		return err
	}
	refInst, err := refRun(r.file, nil)
	if err != nil {
		return fmt.Errorf("reference run of the instrumented binary: %w", err)
	}
	if err := ref.check(r, refInst.exit, refInst.ref); err != nil {
		return fmt.Errorf("reference run of the instrumented binary: %w", err)
	}
	cpuOrig, _, err := emuRun(orig)
	if err != nil {
		return err
	}
	cpuInst, _, err := emuRun(r.file)
	if err != nil {
		return err
	}
	if err := ref.check(r, cpuInst.ExitCode, cpuInst); err != nil {
		return fmt.Errorf("emulated run of the first output: %w", err)
	}
	ref.origInstret, ref.origCycles, ref.instCycles = cpuOrig.Instret, cpuOrig.Cycles, cpuInst.Cycles
	m.ref = ref
	return nil
}

func (m *matmulInst) finish() (int, error) { return 0, nil }

func (m *matmulInst) layerMetrics(out map[string]float64, w *window) error {
	m.acc.put(out, w)
	emuCounters(out, m.reg, w.traced)
	out["overhead_pct"] = 100 * (float64(m.ref.instCycles)/float64(m.ref.origCycles) - 1)
	out["growth_pct"] = m.ref.growth
	out["codegen.snippet_insts"] = m.ref.snippetInsts
	out["guest_mips"] = ratio(float64(m.ref.origInstret)*float64(w.traced), float64(w.attr.self["emu.run"].Nanoseconds())/1e3)
	return nil
}

func (m *matmulInst) close() {}
