package sim

import (
	"repro/internal/cache"
	"repro/internal/trace"
)

// runAllLegacy is the bus-model oracle: the per-access System.RunAll the
// multicore study ran before it moved onto the compiled kernels. Every
// access goes through the legacy Cache.Read/Write path (placement hashed
// per access) via timeAccess, and per-call counters are diffs of the
// caches' cumulative Stats. The differential tests pin the compiled
// RunAll to it bit for bit.
func (s *System) runAllLegacy(traces []trace.Trace) []Result {
	n := len(s.cores)
	if len(traces) != n {
		panic("sim: RunAll needs one trace per core")
	}
	results := make([]Result, n)
	clocks := make([]uint64, n)
	pos := make([]int, n)
	type levelSnap struct{ il1, dl1, l2 cache.Stats }
	before := make([]levelSnap, n)
	for i, c := range s.cores {
		il1, dl1, l2 := c.Caches()
		before[i] = levelSnap{il1.Stats(), dl1.Stats(), l2.Stats()}
	}
	var busFreeAt uint64
	lastGrant := n - 1

	for {
		sel := -1
		for off := 1; off <= n; off++ {
			i := (lastGrant + off) % n
			if traces[i] == nil || pos[i] >= len(traces[i]) {
				continue
			}
			if sel == -1 || clocks[i] < clocks[sel] {
				sel = i
			}
		}
		if sel == -1 {
			break
		}
		c := s.cores[sel]
		a := traces[sel][pos[sel]]
		pos[sel]++
		results[sel].Accesses++

		local, memTxns := c.timeAccess(a)
		t := clocks[sel] + local
		for k := 0; k < memTxns; k++ {
			grant := t
			if busFreeAt > grant {
				grant = busFreeAt
			}
			busFreeAt = grant + s.busService
			lastGrant = sel
			t = grant + s.busService + (s.lat.Memory - s.busService)
		}
		clocks[sel] = t
	}

	for i, c := range s.cores {
		results[i].Cycles = clocks[i]
		il1, dl1, l2 := c.Caches()
		results[i].IL1 = diffStats(before[i].il1, il1.Stats())
		results[i].DL1 = diffStats(before[i].dl1, dl1.Stats())
		results[i].L2 = diffStats(before[i].l2, l2.Stats())
	}
	return results
}

// timeAccess performs the cache state updates of one access on the legacy
// per-access path and returns the core-local cycles plus the number of
// memory-bus transactions it needs.
func (c *Core) timeAccess(a trace.Access) (local uint64, memTxns int) {
	lat := c.lat
	switch a.Kind {
	case trace.Fetch:
		local = lat.L1Hit
		if !c.il1.Read(a.Addr).Hit {
			local += lat.L2Hit
			r := c.l2.Read(a.Addr)
			if !r.Hit {
				memTxns++
			}
			if r.Writeback {
				memTxns++
			}
		}
	case trace.Load:
		local = lat.L1Hit
		if !c.dl1.Read(a.Addr).Hit {
			local += lat.L2Hit
			r := c.l2.Read(a.Addr)
			if !r.Hit {
				memTxns++
			}
			if r.Writeback {
				memTxns++
			}
		}
	default: // Store
		local = lat.L1Hit + lat.StoreBus
		c.dl1.Write(a.Addr)
		r := c.l2.Write(a.Addr)
		if !r.Hit && r.Filled {
			memTxns++
		}
		if r.Writeback {
			memTxns++
		}
	}
	return local, memTxns
}
