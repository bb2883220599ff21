package bench

import (
	"context"
	"fmt"

	"repro/campaignbench/span"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// multicoreSubject is the study's subject; its co-runners are three
// copies of the 160 KB, 4-sweep streaming kernel the study builds itself.
const multicoreSubject = "tblook01"

// multicore is the multicore-bus workload: one experiments.Multicore
// study per round. The study fixes its own inputs (subject, co-runners,
// master seed), so the benchmark seed does not change them.
type multicore struct {
	sc  experiments.Scale
	rec *span.Recorder

	eng     *core.Engine
	sysRuns int    // system runs per configuration (solo, contended)
	soloAcc uint64 // accesses of one solo system run
	contAcc uint64 // accesses of one contended system run, all four cores

	results []experiments.MulticoreResult
}

func newMulticore(_ uint64, sc Scale, rec *span.Recorder) *multicore {
	return &multicore{sc: sc.Campaigns, rec: rec}
}

func (m *multicore) Setup(ctx context.Context) error {
	m.eng = core.NewEngine(core.WithWorkers(Workers))
	subject, err := workload.ByName(multicoreSubject)
	if err != nil {
		return err
	}
	// Accesses on all simulated cores, from the trace lengths: the study
	// replays the subject alone, then the subject plus three co-runners
	// that each run their whole trace.
	s := uint64(len(subject.Build(workload.DefaultLayout())))
	h := uint64(len(workload.Synthetic(160*1024, 4, 4).Build(workload.DefaultLayout())))
	m.soloAcc, m.contAcc = s, s+3*h
	m.sysRuns = max(m.sc.Runs/4, 40)
	// Warm-up at the smallest scale the driver supports: it runs every
	// code path of a study at a fraction of the window's cost.
	_, err = m.study(ctx, -1, experiments.SmokeScale())
	return err
}

func (m *multicore) study(ctx context.Context, r int, sc experiments.Scale) (experiments.MulticoreResult, error) {
	id := m.rec.Begin("experiments.multicore", 0, fmt.Sprintf("study-%d", r))
	defer m.rec.Finish(id)
	return experiments.Multicore(ctx, m.eng, sc, multicoreSubject)
}

func (m *multicore) Round(ctx context.Context, r int) (Tally, error) {
	res, err := m.study(ctx, r, m.sc)
	if err != nil {
		return Tally{}, err
	}
	m.results = append(m.results, res)
	n := uint64(m.sysRuns)
	return Tally{Attempted: 1, Runs: 2 * n, Accesses: n * (m.soloAcc + m.contAcc)}, nil
}

// Check verifies that bus interference only delays the subject and that
// both sides were analysed into a pWCET at or above their HWM.
func (m *multicore) Check(context.Context) error {
	for i, r := range m.results {
		switch {
		case r.ContendedMean < r.SoloMean:
			return fmt.Errorf("study %d: contended mean %.1f below solo %.1f", i, r.ContendedMean, r.SoloMean)
		case r.ContendedHWM < r.SoloHWM:
			return fmt.Errorf("study %d: contended HWM %.0f below solo %.0f", i, r.ContendedHWM, r.SoloHWM)
		case r.SoloPWCET < r.SoloHWM:
			return fmt.Errorf("study %d: solo pWCET %.1f below HWM %.0f", i, r.SoloPWCET, r.SoloHWM)
		case r.ContendedPWCET < r.ContendedHWM:
			return fmt.Errorf("study %d: contended pWCET %.1f below HWM %.0f", i, r.ContendedPWCET, r.ContendedHWM)
		}
	}
	return nil
}

func (m *multicore) Close() {}
