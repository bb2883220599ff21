package experiments

import (
	"context"
	"testing"
)

// TestMulticoreGolden pins the multicore contention study at SmokeScale to
// the values the legacy per-access bus model produced, so the port onto
// the compiled replay kernels is checked bit for bit: every field must
// match exactly, floats included.
func TestMulticoreGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test skipped in -short mode")
	}
	golden := []MulticoreResult{
		{
			Subject: "tblook01", SoloMean: 100988.5, SoloHWM: 111090,
			ContendedMean: 105697.525, ContendedHWM: 117396, MeanSlowdown: 0.046629319179906537,
			SoloPWCET: 185513.2233240113, ContendedPWCET: 202581.11379366927,
			IIDPassSolo: true, IIDPassCont: true,
		},
		{
			Subject: "canrdr01", SoloMean: 81845.5, SoloHWM: 86050,
			ContendedMean: 83964.35, ContendedHWM: 88614, MeanSlowdown: 0.025888411702537084,
			SoloPWCET: 116847.41290563278, ContendedPWCET: 117969.53071190308,
			IIDPassSolo: true, IIDPassCont: true,
		},
	}
	s := SmokeScale()
	for _, want := range golden {
		got, err := Multicore(context.Background(), NewEngine(s), s, want.Subject)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s:\n got %#v\nwant %#v", want.Subject, got, want)
		}
	}
}
