// Command campaignbench is the repository's benchmark: the host cost of
// measurement campaigns, end to end and layer by layer.
//
//	campaignbench --workload mbpta-rm --seed 1 --seconds 15 --trace 0
//
// Untraced runs (--trace 0) print the end-to-end metrics: process CPU
// time per simulated access and per operation, heap bytes allocated per
// run and per operation, and the CPU time of set-up. Traced runs
// (--trace 1) record a span for every call the benchmark makes into a
// layer, run the layer probes on the workload's inputs, print the
// per-layer metrics and write the spans to --spans. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. See README.md for the workloads, metrics and checks.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/campaignbench/bench"
	"repro/campaignbench/probes"
	"repro/campaignbench/span"
	"repro/internal/stats"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// svcRounds is the least number of service-mix rounds a traced run
// measures: 6 hits a round, so at least 40 hit latencies.
const svcRounds = 7

func main() {
	name := flag.String("workload", "", "workload: mbpta-rm, hwm-det, multicore-bus or service-mix")
	seed := flag.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 15, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	spans := flag.String("spans", "", "where a traced run writes its spans (default .bench_build/campaignbench/spans-<workload>-<seed>.json)")
	flag.Parse()
	if *name == "" || *seconds < 0 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(bench.Workers)
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "campaignbench", fmt.Sprintf("spans-%s-%d.json", *name, *seed))
	}
	res, err := run(context.Background(), *name, *seed, bench.Full(), time.Duration(*seconds)*time.Second, *traced == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, seed uint64, sc bench.Scale, dur time.Duration, traced bool, spansPath string) (result, error) {
	var rec *span.Recorder
	minRounds := 1
	if traced {
		rec = span.New()
		if name == "service-mix" {
			minRounds = svcRounds
		}
	}
	out, err := bench.Run(ctx, name, seed, sc, dur, minRounds, rec)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: out.Err == nil, Attempted: out.Tally.Attempted, Failed: out.Tally.Failed, Metrics: map[string]metric{}}
	if out.Err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench: output check failed:", out.Err)
	}
	e2e := endToEnd(out)
	w := out.Window
	perOp := make([]float64, len(out.PerRound))
	for i, r := range out.PerRound {
		perOp[i] = float64(r.Cost.CPU.Nanoseconds()) / 1e6 / float64(r.Tally.Attempted)
	}
	fmt.Fprintf(os.Stderr, "per-round cpu ms/op: q1 %.4g median %.4g q3 %.4g over %d rounds\n",
		stats.Quantile(perOp, 0.25), stats.Quantile(perOp, 0.5), stats.Quantile(perOp, 0.75), len(perOp))
	fmt.Fprintf(os.Stderr, "%s seed %d traced=%v: %d rounds, %d ops (%d failed), wall %.2fs, cpu %.2fs, steal %.2fs, %.0f accesses/s wall, setup cpu %v\n",
		name, seed, traced, out.Rounds, out.Tally.Attempted, out.Tally.Failed, w.Wall.Seconds(), w.CPU.Seconds(), w.Steal.Seconds(),
		float64(out.Tally.Accesses)/w.Wall.Seconds(), out.Setup)
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	for k, m := range e2e {
		fmt.Fprintf(os.Stderr, "traced end-to-end %s = %.6g %s\n", k, m.Value, m.Unit)
	}

	busy := w.CPU.Seconds() / (float64(bench.Workers)*w.Wall.Seconds() - w.Steal.Seconds())
	res.Metrics["core.cpu_busy_ratio"] = metric{busy, "ratio"}
	svc := out.Service
	if svc == nil {
		// The workload makes no requests: measure the service layer on a
		// short service-mix run with the same seed.
		so, err := bench.Run(ctx, "service-mix", seed, sc, 0, svcRounds, rec)
		if err != nil {
			return result{}, err
		}
		if so.Err != nil {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "campaignbench: service probe check failed:", so.Err)
		}
		svc = so.Service
	}
	for k, m := range serviceMetrics(*svc) {
		res.Metrics[k] = m
	}
	in, err := bench.ProbeInputs(name, seed, sc)
	if err != nil {
		return result{}, err
	}
	pm, err := probes.Run(ctx, in, rec)
	if err != nil {
		return result{}, err
	}
	for k, m := range pm {
		res.Metrics[k] = metric(m)
	}
	if err := writeSpans(spansPath, rec); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", rec.Len(), spansPath)
	return res, nil
}

// endToEnd computes the end-to-end metrics of a run. Time is process CPU
// time, the median over the window's rounds of each round's CPU time per
// access or per operation; size is heap bytes allocated over the whole
// window.
func endToEnd(out bench.Outcome) map[string]metric {
	setup := make([]float64, len(out.Setup))
	for i, d := range out.Setup {
		setup[i] = d.Seconds()
	}
	perAccess := make([]float64, len(out.PerRound))
	perOp := make([]float64, len(out.PerRound))
	for i, r := range out.PerRound {
		cpuNs := float64(r.Cost.CPU.Nanoseconds())
		perAccess[i] = cpuNs / float64(r.Tally.Accesses)
		perOp[i] = cpuNs / 1e6 / float64(r.Tally.Attempted)
	}
	t := out.Tally
	kb := float64(out.Window.Alloc) / 1024
	return map[string]metric{
		"setup_s":              {stats.Quantile(setup, 0.5), "s"},
		"cpu_ns_per_access":    {stats.Quantile(perAccess, 0.5), "ns"},
		"alloc_kb_per_run":     {kb / float64(t.Runs), "KB"},
		"cpu_ms_per_request":   {stats.Quantile(perOp, 0.5), "ms"},
		"alloc_kb_per_request": {kb / float64(t.Attempted), "KB"},
	}
}

// serviceMetrics derives the service layer's metrics: latency medians and
// the highest percentile with at least ten samples beyond it, the share of
// submissions the Store answered, and NDJSON lines per request.
func serviceMetrics(s bench.ServiceStats) map[string]metric {
	out := map[string]metric{
		"service.miss_ms.p50":        {stats.Quantile(s.MissMs, 0.5), "ms"},
		"service.miss_ms.tail":       {tail(s.MissMs), "ms"},
		"service.hit_ms.p50":         {stats.Quantile(s.HitMs, 0.5), "ms"},
		"service.hit_ms.tail":        {tail(s.HitMs), "ms"},
		"service.store_hit_ratio":    {float64(s.StoreHits) / float64(s.Requests), "ratio"},
		"service.events_per_request": {float64(s.Events) / float64(s.Requests), "count"},
	}
	fmt.Fprintf(os.Stderr, "service: %d misses (tail = p%g), %d hits (tail = p%g)\n",
		len(s.MissMs), tailPct(len(s.MissMs)), len(s.HitMs), tailPct(len(s.HitMs)))
	return out
}

// tailPct is the highest of the usual percentiles that leaves at least
// ten of n samples beyond it; 100 (the maximum) below forty samples.
func tailPct(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 100
}

func tail(xs []float64) float64 { return stats.Quantile(xs, tailPct(len(xs))/100) }

func writeSpans(path string, rec *span.Recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
