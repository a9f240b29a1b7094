package main

import (
	"bytes"
	"fmt"

	"rvdyn/internal/elfrv"
	"rvdyn/internal/emu"
	"rvdyn/internal/workload"
)

// rewrite-synth is the static rewriter at whole-binary scale: operation k
// instruments seeded random program k mod 8, bytes to bytes, with a counter
// at every block entry of every function, and runs nothing. Parser,
// liveness and patcher changes show here; the emulator is absent.
const (
	synthPrograms = 8
	synthFuncs    = 200
)

var synthSpec = rewriteSpec{points: "blocks", workers: 2}

type synthInst struct {
	inputs [][]byte
	next   int
	want   [][]byte // the first output of each program
	acc    layerAcc

	origCycles, instCycles uint64
	inBytes, outBytes      int
	snippetInsts           float64
}

func setupRewriteSynth(env *runEnv) (instance, error) {
	m := &synthInst{}
	for i := 0; i < synthPrograms; i++ {
		f, err := env.assemble(workload.RandomProgram(env.seed+int64(i), synthFuncs))
		if err != nil {
			return nil, fmt.Errorf("program %d: %w", i, err)
		}
		in, err := f.Write()
		if err != nil {
			return nil, err
		}
		m.inputs = append(m.inputs, in)
	}
	return m, nil
}

func (m *synthInst) op(_ int, o *opRec) error {
	i := m.next % synthPrograms
	m.next++
	o.begin()
	s := o.span("elfrv.read")
	f, err := elfrv.Read(m.inputs[i])
	s.end()
	if err != nil {
		return err
	}
	r, err := rewrite(o, f, synthSpec)
	o.done()
	if err != nil {
		return fmt.Errorf("program %d: %w", i, err)
	}
	if o.traced() {
		m.acc.addRewrite(r)
	}
	if m.want != nil && !bytes.Equal(r.elf, m.want[i]) {
		return fmt.Errorf("program %d: output differs from its first output", i)
	}
	return nil
}

// reference instruments each program once and runs the output on the
// emulator and on the reference interpreter. Both must exit like the
// reference run of the uninstrumented program, with every counter equal to
// the number of times that run entered the function's blocks. Later
// outputs must equal these byte for byte.
func (m *synthInst) reference() error {
	m.want = make([][]byte, synthPrograms)
	for i, in := range m.inputs {
		orig, err := elfrv.Read(in)
		if err != nil {
			return err
		}
		r, err := rewrite(nil, orig, synthSpec)
		if err != nil {
			return fmt.Errorf("program %d: %w", i, err)
		}
		cpuInst, err := checkSynth(orig, r)
		if err != nil {
			return fmt.Errorf("program %d: %w", i, err)
		}
		if i == 0 {
			if m.snippetInsts, err = r.snippetInsts(); err != nil {
				return err
			}
		}
		cpuOrig, _, err := emuRun(orig)
		if err != nil {
			return err
		}
		m.origCycles += cpuOrig.Cycles
		m.instCycles += cpuInst.Cycles
		m.inBytes += len(in)
		m.outBytes += len(r.elf)
		m.want[i] = r.elf
	}
	return nil
}

// checkSynth runs the instrumented output r of orig on both engines and
// compares exit code, output and counters with the reference run of orig.
// It returns the emulated run.
func checkSynth(orig *elfrv.File, r *rewritten) (*emu.CPU, error) {
	want, err := refRun(orig, blockStarts(r.funcs))
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	inst, err := refRun(r.file, nil)
	if err != nil {
		return nil, fmt.Errorf("reference run of the output: %w", err)
	}
	cpu, stdout, err := emuRun(r.file)
	if err != nil {
		return nil, fmt.Errorf("emulated run of the output: %w", err)
	}
	for _, run := range []struct {
		name   string
		exit   int
		stdout []byte
		mem    memReader
	}{
		{"reference run of the output", inst.exit, inst.stdout, inst.ref},
		{"emulated run of the output", cpu.ExitCode, stdout, cpu},
	} {
		if run.exit != want.exit || !bytes.Equal(run.stdout, want.stdout) {
			return nil, fmt.Errorf("%s: exit %d, reference %d (or output differs)", run.name, run.exit, want.exit)
		}
		if err := checkCounters(run.mem, r, want.visits); err != nil {
			return nil, fmt.Errorf("%s: %w", run.name, err)
		}
	}
	return cpu, nil
}

func (m *synthInst) finish() (int, error) { return 0, nil }

func (m *synthInst) layerMetrics(out map[string]float64, w *window) error {
	m.acc.put(out, w)
	out["overhead_pct"] = 100 * (float64(m.instCycles)/float64(m.origCycles) - 1)
	out["growth_pct"] = 100 * (float64(m.outBytes)/float64(m.inBytes) - 1)
	out["codegen.snippet_insts"] = m.snippetInsts
	return nil
}

func (m *synthInst) close() {}
