package bench

import (
	"repro/campaignbench/probes"
	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/prng"
	"repro/internal/workload"
)

// ProbeInputs returns the layer probes' inputs for a workload: its own
// platform, kernels, run count and request bodies. The security probes
// always use the service-mix's attacked designs, the only workload that
// runs security campaigns.
func ProbeInputs(name string, seed uint64, sc Scale) (probes.Inputs, error) {
	in := probes.Inputs{Spec: core.PaperPlatform(placement.RM), Seed: seed}
	for _, combo := range securityCombos() {
		for _, place := range []placement.Kind{placement.Modulo, placement.RM} {
			req, err := core.WireRequest{Placement: place.String(), Runs: 1, Security: &combo}.Request()
			if err != nil {
				return in, err
			}
			spec, err := req.Security.Normalized()
			if err != nil {
				return in, err
			}
			in.Security = append(in.Security, spec)
		}
	}
	byName := func(names ...string) ([]workload.Workload, error) {
		var out []workload.Workload
		for _, n := range names {
			w, err := workload.ByName(n)
			if err != nil {
				return nil, err
			}
			out = append(out, w)
		}
		return out, nil
	}
	var err error
	switch name {
	case "mbpta-rm", "hwm-det":
		t := newMBPTA(seed, sc, nil)
		if name == "hwm-det" {
			t = newHWM(seed, sc, nil)
			in.Spec, in.Baseline = t.spec, true
		}
		t.kernels = workload.EEMBC()
		in.Kernels, in.Runs = t.kernels, t.runs
		for i := range t.kernels {
			req := t.kernelRequest(0, i)
			in.Wire = append(in.Wire, core.WireRequest{Placement: req.Spec.IL1.Placement.String(),
				Workload: req.Workload.Name, Runs: req.Runs, Seed: req.MasterSeed,
				Baseline: req.Baseline, Analyze: req.Analyze})
		}
	case "multicore-bus":
		subject, err := workload.ByName(multicoreSubject)
		if err != nil {
			return in, err
		}
		in.Kernels = []workload.Workload{subject, workload.Synthetic(160*1024, 4, 4)}
		in.Runs = max(sc.Campaigns.Runs/4, 40)
		in.Wire = []core.WireRequest{{Placement: "RM", Workload: multicoreSubject, Runs: in.Runs, Seed: prng.Derive(seed, 0), Analyze: true}}
	case "service-mix":
		s := newServiceMix(seed, sc, nil)
		s.kernels, s.combos = svcKernels(), securityCombos()
		if in.Kernels, err = byName(s.kernels...); err != nil {
			return in, err
		}
		in.Runs, in.Events = s.runs, true
		for c := 0; c < svcClients; c++ {
			for _, q := range s.roundRequests(0, c) {
				in.Wire = append(in.Wire, q.wire)
			}
		}
	default:
		_, err := New(name, seed, sc, nil)
		return in, err
	}
	return in, nil
}
