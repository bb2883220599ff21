// Package bench holds the benchmark's workloads: closed loops over the
// repository's public entry points (core.Engine, experiments.Multicore,
// the campaign service), the accounting of operations attempted and
// failed, and the output checks that run after the timed window.
package bench

import (
	"context"
	"fmt"
	"time"

	"repro/campaignbench/meter"
	"repro/campaignbench/span"
	"repro/internal/experiments"
)

// Workers is the engine pool size and GOMAXPROCS of every workload. It is
// fixed, not derived from the machine, so figures from different hosts
// describe the same configuration.
const Workers = 2

// Tally counts the work of one or more rounds.
type Tally struct {
	Attempted int    // operations: campaigns, studies or requests
	Failed    int    // operations that returned an error
	Accesses  uint64 // simulated memory accesses, summed over all cores
	Runs      uint64 // campaign runs, system runs or attack rounds executed
}

// Add accumulates o into t.
func (t *Tally) Add(o Tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Accesses += o.Accesses
	t.Runs += o.Runs
}

// Workload is one benchmark workload. Rounds are whole and identical in
// shape: every round attempts the same operations (with fresh seeds), so
// the share of failed operations is the same in every run.
type Workload interface {
	// Setup builds the engine or server, resolves the workload's inputs
	// and runs an untimed warm-up pass.
	Setup(ctx context.Context) error
	// Round runs round r and retains what Check needs.
	Round(ctx context.Context, r int) (Tally, error)
	// Check verifies every retained output; it runs after the window.
	Check(ctx context.Context) error
	// Close stops everything Setup started and waits for it.
	Close()
}

// Names lists the workloads in BENCHMARK.json order.
func Names() []string { return []string{"mbpta-rm", "hwm-det", "multicore-bus", "service-mix"} }

// Scale sizes a workload. The campaign sizes are the repository's own
// (experiments.Scale): Runs for mbpta-rm, for multicore-bus (the study
// runs a quarter, at least 40) and for service-mix MBPTA requests;
// HWMLayouts for hwm-det; SecRounds for service-mix security requests.
type Scale struct {
	Campaigns experiments.Scale
	// Setups is how many times a run builds its workload from scratch;
	// setup_s is the median of their CPU times, and the last build runs
	// the window.
	Setups int
}

// Full is the benchmark's scale: experiments.DefaultScale, the size the
// repository's own benchmarks and figure drivers run at.
func Full() Scale { return Scale{Campaigns: experiments.DefaultScale(), Setups: 3} }

// Small is the test scale: experiments.SmokeScale, the smallest at which
// every driver still works, so tests keep every operation and check.
func Small() Scale { return Scale{Campaigns: experiments.SmokeScale(), Setups: 1} }

// New builds the named workload for seed. rec receives the spans of a
// traced run and is nil otherwise.
func New(name string, seed uint64, sc Scale, rec *span.Recorder) (Workload, error) {
	switch name {
	case "mbpta-rm":
		return newMBPTA(seed, sc, rec), nil
	case "hwm-det":
		return newHWM(seed, sc, rec), nil
	case "multicore-bus":
		return newMulticore(seed, sc, rec), nil
	case "service-mix":
		return newServiceMix(seed, sc, rec), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, Names())
}

// Outcome is the measured result of one benchmark run.
type Outcome struct {
	Tally  Tally
	Window meter.Delta     // cost of the timed window
	Setup  []time.Duration // CPU time of each set-up
	Rounds int
	// PerRound holds each round's tally and cost, for medians that a
	// burst of contention on the host moves less than the window total.
	PerRound []RoundCost
	Err      error // first failed check, nil when every output is right
	// Service holds the service layer's counts (service-mix only).
	Service *ServiceStats
}

// RoundCost is the work and cost of one round.
type RoundCost struct {
	Tally Tally
	Cost  meter.Delta
}

// Run builds the workload sc.Setups times, runs whole rounds until
// dur has elapsed and at least minRounds have run, then checks the
// outputs.
func Run(ctx context.Context, name string, seed uint64, sc Scale, dur time.Duration, minRounds int, rec *span.Recorder) (Outcome, error) {
	var out Outcome
	var w Workload
	for i := 0; i < max(sc.Setups, 1); i++ {
		if w != nil {
			w.Close()
		}
		before := meter.ProcessCPU()
		var err error
		if w, err = New(name, seed, sc, rec); err != nil {
			return out, err
		}
		if err := w.Setup(ctx); err != nil {
			w.Close()
			return out, fmt.Errorf("%s: setup: %w", name, err)
		}
		out.Setup = append(out.Setup, meter.ProcessCPU()-before)
	}
	defer w.Close()

	start := meter.Read()
	prev := start
	for r := 0; ; r++ {
		t, err := w.Round(ctx, r)
		if err != nil {
			return out, fmt.Errorf("%s: round %d: %w", name, r, err)
		}
		now := meter.Read()
		out.PerRound = append(out.PerRound, RoundCost{Tally: t, Cost: now.Sub(prev)})
		prev = now
		out.Tally.Add(t)
		out.Rounds = r + 1
		if out.Rounds >= minRounds && now.Wall.Sub(start.Wall) >= dur {
			break
		}
	}
	out.Window = prev.Sub(start)
	if sm, ok := w.(*serviceMix); ok {
		st := sm.Stats()
		out.Service = &st
	}
	out.Err = w.Check(ctx)
	return out, nil
}
