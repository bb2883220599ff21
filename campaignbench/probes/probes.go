// Package probes measures single layers of the system from outside,
// through their public functions, on a workload's own inputs. Each probe
// times a loop of calls with process CPU time and records a span per
// call. Probes live apart from the end-to-end workloads so that a change
// to a layer's signature breaks only the traced run.
package probes

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/campaignbench/meter"
	"repro/campaignbench/span"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/prng"
	"repro/internal/security"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Inputs are the workload inputs the probes replay.
type Inputs struct {
	Spec    core.PlatformSpec
	Kernels []workload.Workload
	// Baseline draws a fresh randomized layout for every trace build, as
	// the high-water-mark protocol does; otherwise every build uses the
	// default layout.
	Baseline bool
	Runs     int  // runs per campaign in the engine probes
	Events   bool // run the engine probes with an event sink installed
	Security []security.Spec
	Wire     []core.WireRequest
	Seed     uint64
}

// Metric is one per-layer figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// since returns the CPU nanoseconds and heap bytes spent since s.
func since(s meter.Sample) (cpuNs float64, allocB float64) {
	d := meter.Read().Sub(s)
	return float64(d.CPU.Nanoseconds()), float64(d.Alloc)
}

// prober carries the inputs and compiled traces through the probes.
type prober struct {
	in     Inputs
	rec    *span.Recorder
	root   int
	traces []trace.Trace
	comp   []*trace.Compiled
	out    map[string]Metric
}

// Run executes every probe and returns the per-layer metrics by name.
func Run(ctx context.Context, in Inputs, rec *span.Recorder) (map[string]Metric, error) {
	p := &prober{in: in, rec: rec, out: make(map[string]Metric)}
	p.root = rec.Begin("probes", 0, "probes")
	defer rec.Finish(p.root)
	g := prng.New(prng.Derive(in.Seed, 0x4C41594F))
	for _, w := range in.Kernels {
		l := workload.DefaultLayout()
		if in.Baseline {
			l = workload.RandomizedLayout(g)
		}
		tr := w.Build(l)
		ct, err := trace.Compile(tr, in.Spec.LineBytes)
		if err != nil {
			return nil, err
		}
		p.traces = append(p.traces, tr)
		p.comp = append(p.comp, ct)
	}
	steps := []func(context.Context) error{
		p.indexAll, p.kernels, p.buildAndCompile, p.engine, p.analysis, p.security, p.codec,
	}
	for _, step := range steps {
		if err := step(ctx); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

func (p *prober) set(name, unit string, v float64) { p.out[name] = Metric{Value: v, Unit: unit} }

// reps is how many times a per-run probe repeats each kernel.
const reps = 30

// indexAll times placement.IndexAll building every level's index plan
// after a reseed, as RunCompiled does when a run starts (the reseed
// itself is not timed).
func (p *prober) indexAll(context.Context) error {
	s := p.in.Spec
	l1Sets := s.L1SizeBytes / (s.L1Ways * s.LineBytes)
	l2Sets := s.L2SizeBytes / (s.L2Ways * s.LineBytes)
	type level struct {
		kind placement.Kind
		sets int
		i, d bool // indexes the instruction / data stream
	}
	levels := []level{{s.IL1.Placement, l1Sets, true, false}, {s.DL1.Placement, l1Sets, false, true}, {s.L2.Placement, l2Sets, true, true}}
	id := p.rec.Begin("probe.placement", p.root, "index_all")
	defer p.rec.Finish(id)
	var lines, cpu float64
	for k, ct := range p.comp {
		for _, lv := range levels {
			pol, err := placement.New(lv.kind, lv.sets)
			if err != nil {
				return err
			}
			out := make([]uint32, max(len(ct.ILines), len(ct.DLines)))
			for r := 0; r < reps; r++ {
				pol.Reseed(prng.Derive(p.in.Seed, k*reps+r))
				c := p.rec.Begin("placement.IndexAll", id, p.in.Kernels[k].Name)
				t0 := meter.ProcessCPU()
				if lv.i {
					placement.IndexAll(pol, ct.ILines, out[:len(ct.ILines)])
					lines += float64(len(ct.ILines))
				}
				if lv.d {
					placement.IndexAll(pol, ct.DLines, out[:len(ct.DLines)])
					lines += float64(len(ct.DLines))
				}
				cpu += float64((meter.ProcessCPU() - t0).Nanoseconds())
				p.rec.Finish(c)
			}
		}
	}
	p.set("placement.index_all_ns_per_line", "ns", cpu/lines)
	return nil
}

// kernels times the cache.Kernel replay loop of the workload's L1 access
// streams under Random and LRU replacement, and sim.Core.RunCompiled on
// the workload's platform.
func (p *prober) kernels(context.Context) error {
	s := p.in.Spec
	for _, repl := range []cache.ReplacementKind{cache.Random, cache.LRU} {
		mk := func(name string, pk placement.Kind) (*cache.Cache, *cache.Kernel, error) {
			c, err := cache.New(cache.Config{Name: name, SizeBytes: s.L1SizeBytes, Ways: s.L1Ways, LineBytes: s.LineBytes,
				Placement: pk, Replacement: repl, Write: cache.WriteThrough})
			if err != nil {
				return nil, nil, err
			}
			return c, cache.NewKernel(c), nil
		}
		ic, ik, err := mk("IL1", s.IL1.Placement)
		if err != nil {
			return err
		}
		dc, dk, err := mk("DL1", s.DL1.Placement)
		if err != nil {
			return err
		}
		id := p.rec.Begin("probe.cache", p.root, repl.String())
		var cpu, acc float64
		for k, ct := range p.comp {
			iplan := make([]uint32, len(ct.ILines))
			dplan := make([]uint32, len(ct.DLines))
			for r := 0; r < reps; r++ {
				seed := prng.Derive(p.in.Seed, k*reps+r)
				ic.Reseed(prng.Derive(seed, 1))
				dc.Reseed(prng.Derive(seed, 2))
				placement.IndexAll(ic.Policy(), ct.ILines, iplan)
				placement.IndexAll(dc.Policy(), ct.DLines, dplan)
				c := p.rec.Begin("cache.Kernel", id, p.in.Kernels[k].Name)
				t0 := meter.ProcessCPU()
				ik.Begin()
				dk.Begin()
				for _, op := range ct.Ops {
					switch op.Kind {
					case trace.Fetch:
						ik.Read(ct.ILines[op.ID], iplan[op.ID])
					case trace.Load:
						dk.Read(ct.DLines[op.ID], dplan[op.ID])
					default:
						dk.Write(ct.DLines[op.ID], dplan[op.ID])
					}
				}
				ik.End()
				dk.End()
				cpu += float64((meter.ProcessCPU() - t0).Nanoseconds())
				p.rec.Finish(c)
				acc += float64(len(ct.Ops))
			}
		}
		p.rec.Finish(id)
		p.set("cache.kernel_ns_per_access."+map[cache.ReplacementKind]string{cache.Random: "random", cache.LRU: "lru"}[repl], "ns", cpu/acc)
	}

	core1, err := s.Build()
	if err != nil {
		return err
	}
	id := p.rec.Begin("probe.sim", p.root, "run_compiled")
	defer p.rec.Finish(id)
	var acc float64
	m := meter.Read()
	for k, ct := range p.comp {
		for r := 0; r < reps; r++ {
			c := p.rec.Begin("sim.RunCompiled", id, p.in.Kernels[k].Name)
			core1.Reseed(prng.Derive(p.in.Seed, k*reps+r))
			core1.RunCompiled(ct)
			p.rec.Finish(c)
			acc += float64(len(ct.Ops))
		}
	}
	cpu, _ := since(m)
	p.set("sim.run_compiled_ns_per_access", "ns", cpu/acc)
	return nil
}

// buildAndCompile times workload.Build and trace.Compile and their heap
// allocation, per access of the built trace.
func (p *prober) buildAndCompile(context.Context) error {
	g := prng.New(prng.Derive(p.in.Seed, 0x4255494C))
	const n = 10
	id := p.rec.Begin("probe.workload", p.root, "build")
	var acc float64
	m := meter.Read()
	for _, w := range p.in.Kernels {
		for r := 0; r < n; r++ {
			l := workload.DefaultLayout()
			if p.in.Baseline {
				l = workload.RandomizedLayout(g)
			}
			c := p.rec.Begin("workload.Build", id, w.Name)
			acc += float64(len(w.Build(l)))
			p.rec.Finish(c)
		}
	}
	cpu, alloc := since(m)
	p.rec.Finish(id)
	p.set("workload.build_ns_per_access", "ns", cpu/acc)
	p.set("workload.build_alloc_b_per_access", "B", alloc/acc)

	id = p.rec.Begin("probe.trace", p.root, "compile")
	defer p.rec.Finish(id)
	acc = 0
	m = meter.Read()
	for k, tr := range p.traces {
		for r := 0; r < n; r++ {
			c := p.rec.Begin("trace.Compile", id, p.in.Kernels[k].Name)
			if _, err := trace.Compile(tr, p.in.Spec.LineBytes); err != nil {
				return err
			}
			p.rec.Finish(c)
			acc += float64(len(tr))
		}
	}
	cpu, alloc = since(m)
	p.set("trace.compile_ns_per_access", "ns", cpu/acc)
	p.set("trace.compile_alloc_b_per_access", "B", alloc/acc)
	return nil
}

// workers is the probe engines' pool size, the benchmark's fixed two.
const workers = 2

// engineFor builds a probe engine: the benchmark's fixed pool and, when
// the inputs ask for it, an event sink that does as little as possible.
func (p *prober) engineFor() *core.Engine {
	opts := []core.EngineOption{core.WithWorkers(workers)}
	if p.in.Events {
		var n int
		opts = append(opts, core.WithEvents(func(core.Event) { n++ }))
	}
	return core.NewEngine(opts...)
}

// smallProgram is a 512-access program whose data lines all share an L1
// set under modulo placement, so its execution time varies with the
// placement seed while a run replays in microseconds. The engine and
// analysis probes use it so that replay does not swamp the costs they
// isolate.
func smallProgram(seed uint64) workload.Workload {
	g := prng.New(prng.Derive(seed, 0x534D414C))
	b := trace.NewBuilder(512)
	for i := 0; i < 256; i++ {
		b.Fetch(0x40000 + uint64(i%16)*32)
		b.Load(0x1000000 + uint64(g.Intn(96))*4096)
	}
	return workload.FromTrace("probe-small", "probe program", b.Trace())
}

// engine measures the engine's own cost per run: the CPU time per run of
// a batch of campaigns (one per workload kernel, at the workload's run
// count, spec, protocol and event setting) minus the CPU time of the same
// runs' Reseed + RunCompiled done directly on two goroutines. Both sides
// replay the small program, so the difference is not lost in replay
// noise; on baseline workloads it includes the per-run trace compile.
func (p *prober) engine(ctx context.Context) error {
	id := p.rec.Begin("probe.core", p.root, "engine")
	defer p.rec.Finish(id)
	prog := smallProgram(p.in.Seed)
	ct, err := trace.Compile(prog.Build(workload.DefaultLayout()), p.in.Spec.LineBytes)
	if err != nil {
		return err
	}
	n := len(p.in.Kernels)
	eng := p.engineFor()
	reqs := make([]core.Request, n)
	for i := range reqs {
		reqs[i] = core.Request{Spec: p.in.Spec, Workload: prog, Runs: p.in.Runs,
			MasterSeed: prng.Derive(p.in.Seed, 1000+i), Baseline: p.in.Baseline}
	}
	var diffs []float64
	for rep := 0; rep < 5; rep++ {
		// Collect first, so that no collection left over from earlier
		// work runs inside either measurement.
		runtime.GC()
		c := p.rec.Begin("sim.RunCompiled", id, "isolated")
		m := meter.Read()
		// Each goroutine builds its own platform, as each engine worker
		// does.
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, err := p.in.Spec.Build()
				if err != nil {
					errs[i] = err
					return
				}
				for r := i; r < n*p.in.Runs; r += len(errs) {
					c.Reseed(prng.Derive(p.in.Seed, r))
					c.RunCompiled(ct)
				}
			}(i)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		iso, _ := since(m)
		p.rec.Finish(c)
		runtime.GC()
		c = p.rec.Begin("core.Engine.RunBatch", id, "engine")
		m = meter.Read()
		if _, err := eng.RunBatch(ctx, reqs); err != nil {
			return err
		}
		cpu, _ := since(m)
		p.rec.Finish(c)
		diffs = append(diffs, (cpu-iso)/float64(n*p.in.Runs))
	}
	p.set("core.engine_ns_per_run", "ns", stats.Quantile(diffs, 0.5))
	return nil
}

// analysis measures the streaming MBPTA analysis as the CPU difference
// between the same campaign with Analyze on and off, alternating the two,
// median of the pairs. The campaigns replay the small program on
// PaperPlatform(RM) at the workload's run count: the analysis cost
// depends on the run count, and a deterministic platform would give it a
// sample with no variance.
func (p *prober) analysis(ctx context.Context) error {
	id := p.rec.Begin("probe.core", p.root, "analysis")
	defer p.rec.Finish(id)
	eng := p.engineFor()
	prog := smallProgram(p.in.Seed)
	var diffs []float64
	for r := 0; r < 9; r++ {
		req := core.Request{Spec: core.PaperPlatform(placement.RM), Workload: prog, Runs: p.in.Runs,
			MasterSeed: prng.Derive(p.in.Seed, 2000+r)}
		var cost [2]float64
		for _, on := range []int{r % 2, 1 - r%2} {
			req.Analyze = on == 1
			runtime.GC()
			c := p.rec.Begin("core.Engine.Run", id, fmt.Sprintf("analyze=%v", req.Analyze))
			m := meter.Read()
			if _, err := eng.Run(ctx, req); err != nil {
				return fmt.Errorf("analysis probe: %w", err)
			}
			cost[on], _ = since(m)
			p.rec.Finish(c)
		}
		diffs = append(diffs, cost[1]-cost[0])
	}
	p.set("core.analysis_ms_per_campaign", "ms", stats.Quantile(diffs, 0.5)/1e6)
	return nil
}

// security times security.Engine.Round per protocol and measures the heap
// allocated per round by a whole security campaign through the engine.
func (p *prober) security(ctx context.Context) error {
	id := p.rec.Begin("probe.security", p.root, "rounds")
	defer p.rec.Finish(id)
	const rounds = 40
	cpu := map[security.Protocol]float64{}
	n := map[security.Protocol]float64{}
	for i, spec := range p.in.Security {
		e, err := security.NewEngine(spec, nil)
		if err != nil {
			return err
		}
		var out security.RoundOut
		m := meter.Read()
		for r := 0; r < rounds; r++ {
			c := p.rec.Begin("security.Round", id, spec.Protocol.String())
			e.Round(prng.Derive(p.in.Seed, i*rounds+r), &out)
			p.rec.Finish(c)
		}
		ns, _ := since(m)
		cpu[spec.Protocol] += ns
		n[spec.Protocol] += rounds
	}
	for _, proto := range security.Protocols() {
		name := map[security.Protocol]string{security.EvictionSet: "eviction", security.Occupancy: "occupancy", security.PrimeProbe: "primeprobe"}[proto]
		p.set("security.round_us."+name, "us", cpu[proto]/n[proto]/1e3)
	}

	eng := core.NewEngine(core.WithWorkers(workers))
	var alloc, total float64
	for i := range p.in.Security {
		spec := p.in.Security[i]
		c := p.rec.Begin("core.Engine.Run", id, "security/"+spec.Protocol.String())
		m := meter.Read()
		if _, err := eng.Run(ctx, core.Request{Security: &spec, Runs: rounds, MasterSeed: prng.Derive(p.in.Seed, 3000+i)}); err != nil {
			return err
		}
		_, b := since(m)
		p.rec.Finish(c)
		alloc += b
		total += rounds
	}
	p.set("security.alloc_b_per_round", "B", alloc/total)
	return nil
}

// codec times the service's admission path for a request body:
// DecodeWireRequest, Normalize and Fingerprint.
func (p *prober) codec(context.Context) error {
	id := p.rec.Begin("probe.service", p.root, "codec")
	defer p.rec.Finish(id)
	bodies := make([][]byte, len(p.in.Wire))
	for i, w := range p.in.Wire {
		b, err := json.Marshal(w)
		if err != nil {
			return err
		}
		bodies[i] = b
	}
	const n = 200
	m := meter.Read()
	for r := 0; r < n; r++ {
		for _, b := range bodies {
			c := p.rec.Begin("core.codec", id, "request")
			w, err := core.DecodeWireRequest(bytes.NewReader(b))
			if err != nil {
				return err
			}
			norm, err := w.Normalize()
			if err != nil {
				return err
			}
			if _, err := norm.Fingerprint(); err != nil {
				return err
			}
			p.rec.Finish(c)
		}
	}
	cpu, _ := since(m)
	p.set("service.codec_us", "us", cpu/float64(n*len(bodies))/1e3)
	return nil
}
