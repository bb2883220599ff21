package bench

import (
	"context"
	"testing"
)

// TestSmallPass runs one round of every workload at the small scale, with
// every output check, and pins the failure accounting: the only failed
// operation is mbpta-rm's known-fault campaign, one in every round.
func TestSmallPass(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			out, err := Run(context.Background(), name, 7, Small(), 0, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if out.Err != nil {
				t.Fatalf("output check: %v", out.Err)
			}
			wantFailed := 0
			if name == "mbpta-rm" {
				wantFailed = out.Rounds
			}
			if out.Tally.Attempted == 0 || out.Tally.Failed != wantFailed {
				t.Fatalf("%d attempted, %d failed over %d rounds; want %d failed", out.Tally.Attempted, out.Tally.Failed, out.Rounds, wantFailed)
			}
			if out.Tally.Accesses == 0 || out.Tally.Runs == 0 || len(out.PerRound) != out.Rounds {
				t.Fatalf("no work counted: %+v", out.Tally)
			}
		})
	}
}

// TestRequestsDependOnSeed checks that the inputs come from the seed: the
// same seed gives the same requests, another seed other ones.
func TestRequestsDependOnSeed(t *testing.T) {
	a, b, c := newMBPTA(1, Small(), nil), newMBPTA(1, Small(), nil), newMBPTA(2, Small(), nil)
	for _, x := range []*timing{a, b, c} {
		if err := x.Setup(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ra, rb, rc := a.roundRequests(3), b.roundRequests(3), c.roundRequests(3)
	if ra[0].MasterSeed != rb[0].MasterSeed || ra[0].MasterSeed == rc[0].MasterSeed {
		t.Fatalf("seeds %d %d %d", ra[0].MasterSeed, rb[0].MasterSeed, rc[0].MasterSeed)
	}
	if last := ra[len(ra)-1]; last.MasterSeed != knownFaultSeed || last.Runs != knownFaultRuns {
		t.Fatalf("known-fault campaign must not depend on the seed: %+v", last)
	}
	s1, s2 := newServiceMix(1, Small(), nil), newServiceMix(1, Small(), nil)
	s1.kernels, s1.combos = svcKernels(), securityCombos()
	s2.kernels, s2.combos = svcKernels(), securityCombos()
	q1, q2 := s1.roundRequests(2, 1), s2.roundRequests(2, 1)
	for i := range q1 {
		if q1[i].label != q2[i].label || q1[i].wire.Seed != q2[i].wire.Seed || q1[i].wire.Workload != q2[i].wire.Workload {
			t.Fatalf("request %d differs for the same seed", i)
		}
	}
}
