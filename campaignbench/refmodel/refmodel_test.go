package refmodel

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tiny returns a hand-checkable platform with the default latencies
// (L1Hit 1, L2Hit 8, Memory 28, StoreBus 2, Writeback 6) and 32 B lines.
func tiny(l1Sets, l1Ways, l2Sets, l2Ways int) Config {
	return Config{LineBytes: 32, L1Sets: l1Sets, L1Ways: l1Ways, L2Sets: l2Sets, L2Ways: l2Ways,
		L1Hit: 1, L2Hit: 8, Memory: 28, StoreBus: 2, WB: 6}
}

func acc(k trace.Kind, addr uint64) trace.Access { return trace.Access{Addr: addr, Kind: k} }

func TestAllHitsAfterWarmUp(t *testing.T) {
	m := New(tiny(2, 2, 4, 2))
	tr := trace.Trace{acc(trace.Fetch, 0x100), acc(trace.Load, 0x0), acc(trace.Store, 0x0), acc(trace.Load, 0x8)}
	// Cold: fetch and load miss everywhere (1+8+28 each); the store finds
	// the loaded line in the L2 (1+2); the last load hits the same L1 line.
	if got := m.Run(tr); got != 37+37+3+1 {
		t.Fatalf("cold run: %d cycles, want 78", got)
	}
	// Warm: every access hits its L1; the store still pays the bus.
	if got := m.Run(tr); got != 1+1+3+1 {
		t.Fatalf("warm run: %d cycles, want 6", got)
	}
}

func TestConflictEviction(t *testing.T) {
	// One direct-mapped L1 set pair: lines 0 and 2 share L1 set 0 but not
	// an L2 set, so the re-load of line 0 misses the L1 and hits the L2.
	m := New(tiny(2, 1, 4, 1))
	tr := trace.Trace{acc(trace.Load, 0x0), acc(trace.Load, 0x40), acc(trace.Load, 0x0)}
	if got := m.Run(tr); got != 37+37+9 {
		t.Fatalf("%d cycles, want 83", got)
	}
}

func TestLRUOrder(t *testing.T) {
	// A fully associative 2-way L1: after A B A, loading C evicts B (the
	// least recently used), so A still hits and B comes back from the L2.
	m := New(tiny(1, 2, 8, 4))
	a, b, c := uint64(0x0), uint64(0x20), uint64(0x40)
	tr := trace.Trace{acc(trace.Load, a), acc(trace.Load, b), acc(trace.Load, a), acc(trace.Load, c), acc(trace.Load, a), acc(trace.Load, b)}
	if got := m.Run(tr); got != 37+37+1+37+1+9 {
		t.Fatalf("%d cycles, want 122", got)
	}
}

func TestDirtyL2Writeback(t *testing.T) {
	// A one-line L2: the store allocates line 0 dirty (1+2+28); the load
	// of line 1 evicts it and pays the writeback (1+8+28+6); the load of
	// line 2 evicts the clean line 1 (1+8+28).
	m := New(tiny(2, 1, 1, 1))
	tr := trace.Trace{acc(trace.Store, 0x0), acc(trace.Load, 0x20), acc(trace.Load, 0x40)}
	if got := m.Run(tr); got != 31+43+37 {
		t.Fatalf("%d cycles, want 111", got)
	}
}

// TestMatchesSimulator replays one kernel on the deterministic platform
// through the engine and through the reference model.
func TestMatchesSimulator(t *testing.T) {
	w, err := workload.ByName("puwmod01")
	if err != nil {
		t.Fatal(err)
	}
	spec := core.DeterministicPlatform()
	res, err := core.NewEngine(core.WithWorkers(1)).Run(context.Background(), core.Request{Spec: spec, Workload: w, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := New(FromSpec(spec)).Run(w.Build(workload.DefaultLayout()))
	if got := uint64(res.HWM()); got != want {
		t.Fatalf("simulator %d cycles, reference %d", got, want)
	}
}
