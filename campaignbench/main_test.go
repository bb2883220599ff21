package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/campaignbench/bench"
)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func names(ms map[string]metric) []string {
	var out []string
	for k := range ms {
		out = append(out, k)
	}
	return out
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: got %v, want %v", what, got, want)
		}
	}
}

// TestMetricsMatchDeclaration runs the small scale untraced and traced and
// checks that each prints exactly the metrics BENCHMARK.json declares,
// and that the traced run writes its spans.
func TestMetricsMatchDeclaration(t *testing.T) {
	e2e, layers := declared(t)
	ctx := context.Background()
	res, err := run(ctx, "hwm-det", 3, bench.Small(), 0, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("untraced run failed its checks")
	}
	sameSet(t, "untraced metrics", names(res.Metrics), e2e)
	for k, m := range res.Metrics {
		if !(m.Value > 0) {
			t.Fatalf("%s = %v, want > 0", k, m.Value)
		}
	}

	spans := filepath.Join(t.TempDir(), "spans.json")
	res, err = run(ctx, "mbpta-rm", 3, bench.Small(), 0, true, spans)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 1 {
		t.Fatalf("traced run: correct=%v failed=%d", res.Correct, res.Failed)
	}
	sameSet(t, "traced metrics", names(res.Metrics), layers)
	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Self  []struct{ Name string } `json:"self"`
		Spans []struct {
			Name  string `json:"name"`
			Start int64  `json:"start_ns"`
			End   int64  `json:"end_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range doc.Spans {
		if s.End < s.Start {
			t.Fatalf("span %s ends before it starts", s.Name)
		}
		seen[s.Name] = true
	}
	for _, want := range []string{"round", "core.run_batch", "core.campaign", "core.compile", "core.replay", "core.analyze",
		"service.request", "http.submit", "http.events", "http.result",
		"placement.IndexAll", "cache.Kernel", "sim.RunCompiled", "workload.Build", "trace.Compile", "security.Round", "core.codec"} {
		if !seen[want] {
			t.Errorf("no %s span", want)
		}
	}
}
