package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/campaignbench/span"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// kinds counts the accesses of a trace by kind, independently of the
// simulator that replays it.
type kinds struct{ fetches, loads, stores uint64 }

func (k kinds) total() uint64 { return k.fetches + k.loads + k.stores }

func countKinds(tr trace.Trace) kinds {
	var k kinds
	for _, a := range tr {
		switch a.Kind {
		case trace.Fetch:
			k.fetches++
		case trace.Load:
			k.loads++
		default:
			k.stores++
		}
	}
	return k
}

// kernelKinds counts each EEMBC-like kernel's trace under the default
// layout, keyed by workload name.
func kernelKinds(ws []workload.Workload) map[string]kinds {
	out := make(map[string]kinds, len(ws))
	for _, w := range ws {
		out[w.Name] = countKinds(w.Build(workload.DefaultLayout()))
	}
	return out
}

// checkCampaign verifies one timing campaign against properties the model
// must have: per-level access counts follow from the trace, the summed
// cycles lie between the all-hit cost and the all-hit cost plus every
// counted miss and writeback at full price, and min <= mean <= HWM
// (<= pWCET where analysed).
func checkCampaign(res core.Result, k kinds, runs int, spec core.PlatformSpec) error {
	n := uint64(runs)
	lv := res.Levels
	if lv.IL1.Accesses != n*k.fetches {
		return fmt.Errorf("%s: IL1 accesses %d, want runs x fetches = %d", res.Name, lv.IL1.Accesses, n*k.fetches)
	}
	if lv.DL1.Accesses != n*(k.loads+k.stores) {
		return fmt.Errorf("%s: DL1 accesses %d, want runs x (loads+stores) = %d", res.Name, lv.DL1.Accesses, n*(k.loads+k.stores))
	}
	lat := spec.Lat
	lo := n * (k.total()*lat.L1Hit + k.stores*lat.StoreBus)
	hi := lo + (lv.IL1.Misses+lv.DL1.Misses)*lat.L2Hit + lv.L2.Misses*lat.Memory + lv.L2.Writebacks*lat.Writeback
	m := res.Summary.Moments
	if m.N != int64(runs) {
		return fmt.Errorf("%s: summary covers %d runs, want %d", res.Name, m.N, runs)
	}
	if m.Sum < float64(lo) || m.Sum > float64(hi) {
		return fmt.Errorf("%s: summed cycles %.0f outside [%d, %d]", res.Name, m.Sum, lo, hi)
	}
	if mean := res.Mean(); !(m.Min <= mean && mean <= res.HWM()) {
		return fmt.Errorf("%s: min %.0f, mean %.2f, HWM %.0f out of order", res.Name, m.Min, mean, res.HWM())
	}
	if a := res.Analysis; a != nil && a.PWCET15 < res.HWM() {
		return fmt.Errorf("%s: pWCET@1e-15 %.1f below HWM %.0f", res.Name, a.PWCET15, res.HWM())
	}
	return nil
}

// sameCampaign reports whether two results of one request agree on every
// aggregate a user reads.
func sameCampaign(a, b core.Result) error {
	if a.Levels != b.Levels {
		return fmt.Errorf("%s: per-level counters differ: %+v vs %+v", a.Name, a.Levels, b.Levels)
	}
	if a.HWM() != b.HWM() || a.Mean() != b.Mean() {
		return fmt.Errorf("%s: HWM/mean %v/%v vs %v/%v", a.Name, a.HWM(), a.Mean(), b.HWM(), b.Mean())
	}
	if (a.Analysis == nil) != (b.Analysis == nil) {
		return fmt.Errorf("%s: analysed on one side only", a.Name)
	}
	if a.Analysis != nil && (a.Analysis.PWCET15 != b.Analysis.PWCET15 || a.Analysis.PWCET12 != b.Analysis.PWCET12) {
		return fmt.Errorf("%s: pWCET %v vs %v", a.Name, a.Analysis.PWCET15, b.Analysis.PWCET15)
	}
	return nil
}

// phaseSpans turns engine progress events into spans in traced runs: one
// span per campaign with one child per completed phase. The sink is
// serialized by the engine and only appends timestamps.
type phaseSpans struct {
	rec    *span.Recorder
	parent int

	mu   sync.Mutex
	open map[string]campaignMark
}

type campaignMark struct {
	id   int
	last time.Time
}

func (p *phaseSpans) sink(ev core.Event) {
	if ev.Kind == core.RunCompleted || ev.Kind == core.SnapshotTaken {
		return
	}
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	switch ev.Kind {
	case core.CampaignStarted:
		id := p.rec.Begin("core.campaign", p.parent, ev.Campaign)
		p.open[ev.Campaign] = campaignMark{id: id, last: now}
	case core.PhaseDone:
		m := p.open[ev.Campaign]
		p.rec.Add("core."+ev.Phase, m.id, ev.Campaign, m.last, now)
		m.last = now
		p.open[ev.Campaign] = m
	case core.CampaignFinished:
		p.rec.Finish(p.open[ev.Campaign].id)
		delete(p.open, ev.Campaign)
	}
}

// engineFor builds the workload's engine: a fixed pool and, in traced
// runs, the phase-span sink.
func engineFor(tr *phaseSpans) *core.Engine {
	if tr == nil {
		return core.NewEngine(core.WithWorkers(Workers))
	}
	return core.NewEngine(core.WithWorkers(Workers), core.WithEvents(tr.sink))
}

// batchRound runs one batch as a round span in traced runs.
func batchRound(ctx context.Context, eng *core.Engine, tr *phaseSpans, rec *span.Recorder, r int, reqs []core.Request) ([]core.Result, error) {
	root := rec.Begin("round", 0, fmt.Sprintf("round-%d", r))
	defer rec.Finish(root)
	if tr != nil {
		tr.mu.Lock()
		tr.parent = rec.Begin("core.run_batch", root, fmt.Sprintf("round-%d", r))
		tr.mu.Unlock()
		defer func() { rec.Finish(tr.parent) }()
	}
	return eng.RunBatch(ctx, reqs)
}
