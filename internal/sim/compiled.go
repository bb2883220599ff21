package sim

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/trace"
)

// indexPlan holds the per-run set-index lookup tables of a compiled run:
// one dense []uint32 per (cache level, line stream), materialized by
// placement.IndexAll right after a reseed fixes the mappings. The slices
// live on the Core and are reused across runs, so a campaign's steady
// state allocates nothing per run.
//
// builtFor remembers which Compiled the current tables describe: plans of
// deterministic (non-Randomized) placement policies are seed-invariant,
// so as long as the same Compiled replays they are rebuilt once and then
// reused across reseeds — a baseline Modulo hierarchy stops paying
// O(uniqueLines) per run, and a mixed hierarchy (deterministic L1s,
// randomized L2) pays it only for the randomized levels.
type indexPlan struct {
	il1 []uint32 // IL1 set per instruction line ID
	dl1 []uint32 // DL1 set per data line ID
	l2i []uint32 // L2 set per instruction line ID
	l2d []uint32 // L2 set per data line ID

	builtFor *trace.Compiled
}

func planSlot(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		return make([]uint32, n)
	}
	return buf[:n]
}

// supportsCompiled reports whether compiled traces of the given line size
// can replay on this core: the compiled replay bypasses each level's
// LineAddr, so every level must share the compiled line size. Platforms
// built from a single sim.Config always do.
func (c *Core) supportsCompiled(lineBytes int) bool {
	return c.il1.Config().LineBytes == lineBytes &&
		c.dl1.Config().LineBytes == lineBytes &&
		c.l2.Config().LineBytes == lineBytes
}

// preparePlans refreshes the per-level index plans for ct. A new Compiled
// (or a first run) sizes and builds everything; on repeat replays of the
// same Compiled only the levels whose placement policy actually
// re-randomizes per seed are rebuilt.
func (c *Core) preparePlans(ct *trace.Compiled) {
	fresh := c.plan.builtFor != ct
	if fresh {
		c.plan.il1 = planSlot(c.plan.il1, len(ct.ILines))
		c.plan.dl1 = planSlot(c.plan.dl1, len(ct.DLines))
		c.plan.l2i = planSlot(c.plan.l2i, len(ct.ILines))
		c.plan.l2d = planSlot(c.plan.l2d, len(ct.DLines))
	}
	if fresh || c.il1.Policy().Randomized() {
		placement.IndexAll(c.il1.Policy(), ct.ILines, c.plan.il1)
	}
	if fresh || c.dl1.Policy().Randomized() {
		placement.IndexAll(c.dl1.Policy(), ct.DLines, c.plan.dl1)
	}
	if fresh || c.l2.Policy().Randomized() {
		placement.IndexAll(c.l2.Policy(), ct.ILines, c.plan.l2i)
		placement.IndexAll(c.l2.Policy(), ct.DLines, c.plan.l2d)
	}
	c.plan.builtFor = ct
}

// beginCompiled starts a compiled replay of ct on this core: it checks
// the line size, refreshes the index plans and opens a run on every
// level's kernel. The matching endCompiled returns the per-call Stats.
func (c *Core) beginCompiled(ct *trace.Compiled) {
	if !c.supportsCompiled(ct.LineBytes) {
		badLineSize(ct.LineBytes)
	}
	c.preparePlans(ct)
	c.kil1.Begin()
	c.kdl1.Begin()
	c.kl2.Begin()
}

// endCompiled closes the kernels' run and returns its per-level Stats.
func (c *Core) endCompiled() (il1, dl1, l2 cache.Stats) {
	return c.kil1.End(), c.kdl1.End(), c.kl2.End()
}

// step replays one compiled access through the L1 and L2 kernels: the
// single L1->L2 sequencing that RunCompiled and the multicore bus model
// (System.RunAll) share. local is the core-local cycle charge (the L1
// charge, plus the store bus or the L2 lookup). l2 is the L2 outcome,
// zero when the L1 served the access. The caller charges the memory
// side: a memory transaction iff l2&BitFilled (read misses always fill;
// a store fills only where the L2 allocates on write) and a writeback
// iff l2&BitWriteback.
//
//rm:hotpath
func (c *Core) step(ct *trace.Compiled, op trace.Op) (local uint64, l2 cache.AccessBits) {
	switch op.Kind {
	case trace.Fetch:
		la := ct.ILines[op.ID]
		if c.kil1.Read(la, c.plan.il1[op.ID])&cache.BitHit != 0 {
			return c.lat.L1Hit, 0
		}
		return c.lat.L1Hit + c.lat.L2Hit, c.kl2.Read(la, c.plan.l2i[op.ID])
	case trace.Load:
		la := ct.DLines[op.ID]
		if c.kdl1.Read(la, c.plan.dl1[op.ID])&cache.BitHit != 0 {
			return c.lat.L1Hit, 0
		}
		return c.lat.L1Hit + c.lat.L2Hit, c.kl2.Read(la, c.plan.l2d[op.ID])
	default: // Store
		la := ct.DLines[op.ID]
		c.kdl1.Write(la, c.plan.dl1[op.ID]) // write-through: updates line if present
		return c.lat.L1Hit + c.lat.StoreBus, c.kl2.Write(la, c.plan.l2d[op.ID])
	}
}

// RunCompiled executes a compiled trace to completion: identical cache
// state transitions, cycle counts, per-level statistics and
// replacement-RNG draws as Run on the source trace — the legacy Run stays
// as the differential oracle — but with the per-access placement hashing
// hoisted out of the loop and the per-access replacement/write-policy
// branching compiled away into the monomorphic cache.Kernel triple bound
// at platform construction. Callers fix the run's mapping first (Reseed
// or Flush, as with Run); RunCompiled then refreshes the index plans
// (skipping seed-invariant deterministic placements, see preparePlans)
// and replays with array lookups, accumulating statistics in kernel-local
// counters that flush once at run end.
//
// This is the MBPTA campaign hot path: a campaign replays the same
// Compiled hundreds of times (it is immutable and shared across worker
// cores) while only the seeds change.
//
// RunCompiled panics if the compiled line size does not match every
// level.
//
//rm:hotpath
func (c *Core) RunCompiled(ct *trace.Compiled) Result {
	c.beginCompiled(ct)
	var cycles uint64
	lat := c.lat
	for _, op := range ct.Ops {
		local, l2 := c.step(ct, op)
		cycles += local
		if l2&cache.BitFilled != 0 {
			cycles += lat.Memory
		}
		if l2&cache.BitWriteback != 0 {
			cycles += lat.Writeback
		}
	}
	r := Result{Cycles: cycles, Accesses: len(ct.Ops)}
	r.IL1, r.DL1, r.L2 = c.endCompiled()
	return r
}

// badLineSize is the compiled replay's cold panic helper: formatting
// stays off the annotated hot path so the escape-analysis gate
// (scripts/check-noalloc.sh) sees no heap traffic in its span. noinline
// keeps the compiler from folding the Sprintf escape back into the
// caller's span.
//
//go:noinline
func badLineSize(lineBytes int) {
	panic(fmt.Sprintf("sim: compiled line size %dB does not match all cache levels", lineBytes))
}
