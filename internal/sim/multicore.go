package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/trace"
)

// System models the paper's four-core platform: per-core private L1s and
// L2 partitions, with a shared memory bus arbitrated round-robin. The L2
// partitioning removes storage interference (as in the paper); the bus
// model retains bandwidth interference, which is what the MBPTA multicore
// literature the paper cites analyses. This is the substrate behind the
// multicore example and the contention ablation bench.
type System struct {
	cores []*Core
	lat   Latencies
	// busService is the bus occupancy of one memory transaction.
	busService uint64
}

// NewSystem builds n identical cores from cfg.
func NewSystem(cfg Config, n int) (*System, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: system needs at least one core, got %d", n)
	}
	lat, err := cfg.Lat.Normalize()
	if err != nil {
		return nil, err
	}
	s := &System{lat: lat}
	s.busService = s.lat.Memory / 2 // transfer slot; the rest is DRAM latency
	if s.busService == 0 {
		s.busService = 1
	}
	for i := 0; i < n; i++ {
		c, err := New(cfg)
		if err != nil {
			return nil, err
		}
		s.cores = append(s.cores, c)
	}
	return s, nil
}

// Cores returns the core models.
func (s *System) Cores() []*Core { return s.cores }

// Reseed reseeds every core with seeds derived from runSeed.
func (s *System) Reseed(runSeed uint64) {
	for i, c := range s.cores {
		c.Reseed(runSeed ^ uint64(i+1)*0x9E3779B97F4A7C15)
	}
}

// RunAll executes one compiled trace per core concurrently under the
// shared-bus model and returns per-core results. Cores with a nil trace
// idle. As with RunCompiled, each Result reports this call only: the
// per-level counters come from the kernels' Begin/End window.
//
// The model is event-driven: each core retires accesses in order through
// the same step as RunCompiled; accesses that need a memory transaction
// (an L2 fill or an L2 writeback) must win the bus, which serves one
// transaction at a time. Arbitration is round-robin: among cores whose
// request is pending when the bus frees, the one following the last
// grantee wins. This is a time-composable bus in the sense of the MBPTA
// multicore designs the paper cites.
//
// RunAll panics unless there is one slot per core, and if a compiled
// line size does not match every cache level.
func (s *System) RunAll(cts []*trace.Compiled) []Result {
	n := len(s.cores)
	if len(cts) != n {
		panic("sim: RunAll needs one trace per core")
	}
	results := make([]Result, n)
	clocks := make([]uint64, n) // core-local completion time
	pos := make([]int, n)       // next access index per core
	for i, c := range s.cores {
		if cts[i] != nil {
			c.beginCompiled(cts[i])
		}
	}
	var busFreeAt uint64
	lastGrant := n - 1

	for {
		// Pick the next core to advance: the unfinished core with the
		// earliest local clock; round-robin from lastGrant breaks ties so
		// bus contention resolves fairly.
		sel := -1
		for off := 1; off <= n; off++ {
			i := (lastGrant + off) % n
			if cts[i] == nil || pos[i] >= len(cts[i].Ops) {
				continue
			}
			if sel == -1 || clocks[i] < clocks[sel] {
				sel = i
			}
		}
		if sel == -1 {
			break
		}
		ct := cts[sel]
		local, l2 := s.cores[sel].step(ct, ct.Ops[pos[sel]])
		pos[sel]++

		t := clocks[sel] + local
		memTxns := 0
		if l2&cache.BitFilled != 0 {
			memTxns++
		}
		if l2&cache.BitWriteback != 0 {
			memTxns++
		}
		for k := 0; k < memTxns; k++ {
			grant := max(t, busFreeAt)
			busFreeAt = grant + s.busService
			lastGrant = sel
			t = grant + s.busService + (s.lat.Memory - s.busService)
		}
		clocks[sel] = t
	}

	for i, c := range s.cores {
		if cts[i] == nil {
			continue
		}
		results[i].Cycles = clocks[i]
		results[i].Accesses = len(cts[i].Ops)
		results[i].IL1, results[i].DL1, results[i].L2 = c.endCompiled()
	}
	return results
}
