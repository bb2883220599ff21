package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/placement"
	"repro/internal/prng"
	"repro/internal/trace"
)

// compileAll compiles one trace per core for System.RunAll at the paper
// platform's 32-byte line size; a nil trace stays a nil (idle) slot.
func compileAll(t testing.TB, trs ...trace.Trace) []*trace.Compiled {
	t.Helper()
	out := make([]*trace.Compiled, len(trs))
	for i, tr := range trs {
		if tr == nil {
			continue
		}
		ct, err := trace.Compile(tr, 32)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ct
	}
	return out
}

// TestRunAllStatsArePerCall is the regression test for the cumulative-
// stats bug: RunAll once copied each cache's lifetime counters into its
// Results, so a second RunAll on the same System (or any prior run on a
// core) double-counted accesses and misses.
func TestRunAllStatsArePerCall(t *testing.T) {
	sys, err := NewSystem(paperConfig(placement.RM), 2)
	if err != nil {
		t.Fatal(err)
	}
	sys.Reseed(5)
	b := trace.NewBuilder(0)
	for i := 0; i < 4000; i++ {
		b.Load(uint64(i*32) % (64 * 1024))
	}
	traces := compileAll(t, b.Trace(), b.Trace())

	first := sys.RunAll(traces)
	second := sys.RunAll(traces)
	for i := range first {
		if got := second[i].DL1.Accesses; got != first[i].DL1.Accesses {
			t.Fatalf("core %d: second RunAll reports %d DL1 accesses, first %d (cumulative, not per-call)",
				i, got, first[i].DL1.Accesses)
		}
		if second[i].DL1.Accesses != 4000 {
			t.Fatalf("core %d: DL1 accesses = %d, want 4000", i, second[i].DL1.Accesses)
		}
		// The warm second pass must show the hits it earned, not the cold
		// pass's misses again.
		if second[i].DL1.Misses >= first[i].DL1.Misses+second[i].DL1.Hits {
			t.Fatalf("core %d: second-call misses %d look cumulative", i, second[i].DL1.Misses)
		}
	}

	// Interleaving a direct single-core run must not leak into RunAll
	// either, on the compiled path or the legacy one.
	sys.Cores()[0].RunCompiled(traces[0])
	sys.Cores()[1].Run(b.Trace())
	third := sys.RunAll(traces)
	for i := range third {
		if third[i].DL1.Accesses != 4000 {
			t.Fatalf("core %d: RunAll after a direct run reports %d DL1 accesses, want 4000", i, third[i].DL1.Accesses)
		}
	}
}

// TestLatenciesValidation pins the normalization contract: the zero value
// selects the defaults, a partially-specified set with Memory left at
// zero is rejected at construction (it used to wrap uint64 in the bus
// model), and any set with Memory >= 1 is accepted as given.
func TestLatenciesValidation(t *testing.T) {
	if lat, err := (Latencies{}).Normalize(); err != nil || lat != DefaultLatencies() {
		t.Fatalf("zero Latencies normalized to %+v, %v; want defaults", lat, err)
	}
	partial := Latencies{L1Hit: 1, L2Hit: 8, StoreBus: 2} // Memory missing
	if err := partial.Validate(); err == nil {
		t.Fatal("Memory=0 with other fields set validated")
	}
	cfg := paperConfig(placement.Modulo)
	cfg.Lat = partial
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted an underflowing latency set")
	}
	if _, err := NewSystem(cfg, 2); err == nil {
		t.Fatal("NewSystem accepted an underflowing latency set")
	} else if !strings.Contains(err.Error(), "Memory") {
		t.Fatalf("unhelpful latency error: %v", err)
	}

	// Minimal legal memory latency: no wraparound, sane cycle counts.
	cfg.Lat = Latencies{L1Hit: 1, Memory: 1}
	sys, err := NewSystem(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := trace.NewBuilder(0)
	for i := 0; i < 100; i++ {
		b.Load(uint64(i * 32))
	}
	res := sys.RunAll(compileAll(t, b.Trace()))
	// 100 L1-cycle charges + 100 L2 misses at 1 memory cycle each bounds
	// the run far below any wrapped-uint64 absurdity.
	if res[0].Cycles == 0 || res[0].Cycles > 10000 {
		t.Fatalf("cycle count %d implausible for Memory=1", res[0].Cycles)
	}
}

// TestRunAllMatchesLegacyOracle is the differential test of the compiled
// bus model: for every placement kind x replacement policy x write
// arrangement, at 1, 2 and 4 cores with idle (nil) slots, RunAll must
// reproduce the legacy per-access bus loop (runAllLegacy) bit for bit:
// whole []Result, cycles, accesses and every per-level counter. Three
// consecutive calls per system reseed between calls and alternate the idle
// slots, so replacement-RNG state carried from one call into the next is
// compared too.
func TestRunAllMatchesLegacyOracle(t *testing.T) {
	type writeSetup struct {
		name    string
		l1Write cache.WritePolicy
		l1Alloc bool
		l2Write cache.WritePolicy
	}
	writes := []writeSetup{
		{"wt-noalloc/wb", cache.WriteThrough, false, cache.WriteBack},
		{"wt-alloc/wb", cache.WriteThrough, true, cache.WriteBack},
		{"wb/wt", cache.WriteBack, false, cache.WriteThrough},
		{"wb/wb", cache.WriteBack, false, cache.WriteBack},
		{"wt-noalloc/wt", cache.WriteThrough, false, cache.WriteThrough},
	}
	var traces []trace.Trace
	for i := 0; i < 4; i++ {
		traces = append(traces, mixedTrace(0xB05+uint64(i), 4000+1000*i))
	}
	for _, pk := range placement.Kinds() {
		for _, rk := range []cache.ReplacementKind{cache.LRU, cache.Random, cache.FIFO, cache.PLRU} {
			for _, ws := range writes {
				cfg := paperConfig(pk)
				cfg.IL1.Replacement, cfg.DL1.Replacement, cfg.L2.Replacement = rk, rk, rk
				cfg.DL1.Write, cfg.DL1.AllocOnWrite = ws.l1Write, ws.l1Alloc
				cfg.L2.Write = ws.l2Write
				for _, n := range []int{1, 2, 4} {
					name := fmt.Sprintf("%v/%v/%s/%d-core", pk, rk, ws.name, n)
					legacy, err := NewSystem(cfg, n)
					if err != nil {
						t.Fatal(err)
					}
					compiled, err := NewSystem(cfg, n)
					if err != nil {
						t.Fatal(err)
					}
					for call := 0; call < 3; call++ {
						trs := make([]trace.Trace, n)
						for i := range trs {
							// Every core runs on the first call; later
							// calls idle alternating slots (core 0 always
							// runs on a 1-core system).
							if call == 0 || n == 1 || (i+call)%2 == 0 {
								trs[i] = traces[i]
							}
						}
						seed := prng.Derive(0x51DE, call)
						legacy.Reseed(seed)
						compiled.Reseed(seed)
						want := legacy.runAllLegacy(trs)
						got := compiled.RunAll(compileAll(t, trs...))
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s call %d core %d: compiled %+v, legacy oracle %+v",
									name, call, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}
