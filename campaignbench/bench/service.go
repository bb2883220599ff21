package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"time"

	"repro/campaignbench/span"
	"repro/internal/core"
	"repro/internal/prng"
	"repro/internal/security"
	"repro/internal/service"
	"repro/internal/workload"
)

// Service-mix shape. The repository holds no recorded rmserved traffic,
// so the proportions are an assumption, chosen for coverage rather than
// taken from use. Two closed-loop clients, one per engine worker, so
// both stay fed. Per round each submits svcMBPTA MBPTA campaigns and
// svcSecurity security campaigns (all misses, fresh seeds): between them
// the clients run every service kernel and every security design once a
// round, so every round has the same composition and the seed only
// changes campaign seeds and order. Each also resubmits svcHits of its
// own earlier requests of the round (hits): the seven-round traced pass
// then times 42 hits, just over the 40 that leave ten samples beyond
// the p75 tail.
const (
	svcClients  = 2
	svcMBPTA    = 5
	svcSecurity = 6
	svcHits     = 3
)

// svcKernels are the kernels the service-mix MBPTA requests draw from:
// the EEMBC-like set without the known-fault kernel, whose analysis can
// fail on some seeds.
func svcKernels() []string {
	var out []string
	for _, w := range workload.EEMBC() {
		if w.Name != knownFaultKernel {
			out = append(out, w.Name)
		}
	}
	return out
}

// securityCombos are the attacked designs of the mix: every protocol over
// Modulo and RM placement with LRU and Random replacement.
func securityCombos() []core.WireSecurity {
	var out []core.WireSecurity
	for _, proto := range []string{"eviction", "occupancy", "primeprobe"} {
		for _, repl := range []string{"LRU", "Random"} {
			out = append(out, core.WireSecurity{Protocol: proto, Replacement: repl})
		}
	}
	return out
}

// svcReq is one request of the sequence.
type svcReq struct {
	label string
	wire  core.WireRequest
	hitOf int // index (within the round) of the request this resubmits; -1 for a miss
}

// svcResp is what a client observed for one request.
type svcResp struct {
	status  int
	id      string
	cached  bool
	events  int
	state   string
	result  json.RawMessage
	latency time.Duration
}

// ServiceStats are the service layer's counts over the timed window.
type ServiceStats struct {
	MissMs, HitMs []float64 // per-request latency, submit to result
	Events        int       // NDJSON lines read
	Requests      int
	StoreHits     uint64 // Store hit counter delta
}

// serviceMix is the service-mix workload.
type serviceMix struct {
	seed      uint64
	runs      int
	secRounds int
	rec       *span.Recorder

	srv     *service.Server
	hs      *http.Server
	served  chan struct{}
	tr      *http.Transport
	client  *http.Client
	base    string
	kernels []string
	kinds   map[string]kinds
	combos  []core.WireSecurity
	// bufs are the clients' NDJSON line buffers, allocated once so the
	// window's allocation figures count as little of the client as can be.
	bufs [svcClients][]byte

	hits0 uint64
	reqs  []svcReq
	resps []svcResp
	stats ServiceStats
}

func newServiceMix(seed uint64, sc Scale, rec *span.Recorder) *serviceMix {
	return &serviceMix{seed: seed, runs: sc.Campaigns.Runs, secRounds: sc.Campaigns.SecRounds, rec: rec}
}

func (s *serviceMix) Setup(ctx context.Context) error {
	srv, err := service.New(service.Config{Workers: Workers, Jobs: Workers})
	if err != nil {
		return err
	}
	s.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	s.tr = &http.Transport{MaxIdleConnsPerHost: 2 * svcClients, DisableCompression: true}
	s.client = &http.Client{Transport: s.tr, Timeout: 60 * time.Second}
	s.base = "http://" + ln.Addr().String()
	for c := range s.bufs {
		s.bufs[c] = make([]byte, 64<<10)
	}
	s.kernels = svcKernels()
	ws := make([]workload.Workload, 0, len(s.kernels))
	for _, n := range s.kernels {
		w, err := workload.ByName(n)
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	s.kinds = kernelKinds(ws)
	s.combos = securityCombos()
	// Warm-up: one MBPTA miss, one security miss and one hit, under a
	// seed the window never uses.
	warm := []svcReq{
		{label: "warm-mbpta", wire: core.WireRequest{Placement: "RM", Workload: s.kernels[0], Runs: s.runs, Seed: s.seed ^ 0x5741524D, Analyze: true}, hitOf: -1},
		{label: "warm-sec", wire: core.WireRequest{Placement: "RM", Runs: s.secRounds, Seed: s.seed ^ 0x5741524D, Security: &s.combos[0]}, hitOf: -1},
	}
	warm = append(warm, svcReq{label: "warm-hit", wire: warm[0].wire, hitOf: 0})
	for _, q := range warm {
		if _, err := s.do(ctx, q, s.bufs[0]); err != nil {
			return fmt.Errorf("warm-up %s: %w", q.label, err)
		}
	}
	return nil
}

// roundRequests returns round r's sequence for client c.
func (s *serviceMix) roundRequests(r, c int) []svcReq {
	// The round's kernels, shuffled by the seed and dealt to the clients.
	g := prng.New(prng.Derive(s.seed, r))
	order := append([]string(nil), s.kernels...)
	for i := len(order) - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	seed := func(i int) uint64 { return prng.Derive(s.seed^0x5356434D, (r*svcClients+c)*64+i) }
	var mb, sec []svcReq
	for i := 0; i < svcMBPTA; i++ {
		k := order[c*svcMBPTA+i]
		mb = append(mb, svcReq{label: fmt.Sprintf("r%d/c%d/mbpta%d", r, c, i), hitOf: -1,
			wire: core.WireRequest{Placement: "RM", Workload: k, Runs: s.runs, Seed: seed(i), Analyze: true}})
	}
	for i := 0; i < svcSecurity; i++ {
		// Client c takes design (combo i, placement) with placement
		// alternating by i+c, so the two clients cover all twelve.
		combo := s.combos[i]
		place := "Modulo"
		if (i+c)%2 == 1 {
			place = "RM"
		}
		sec = append(sec, svcReq{label: fmt.Sprintf("r%d/c%d/sec%d", r, c, i), hitOf: -1,
			wire: core.WireRequest{Placement: place, Runs: s.secRounds, Seed: seed(32 + i), Security: &combo}})
	}
	// Interleave: M S S M S H M S M H S M S H, where each hit resubmits
	// an earlier request of the same client under another display name
	// and spelling (same fingerprint).
	seq := []svcReq{mb[0], sec[0], sec[1], mb[1], sec[2]}
	seq = append(seq, s.resubmit(seq, 0), mb[2], sec[3], mb[3])
	seq = append(seq, s.resubmit(seq, 1), sec[4], mb[4], sec[5])
	seq = append(seq, s.resubmit(seq, 3))
	return seq
}

func (s *serviceMix) resubmit(seq []svcReq, i int) svcReq {
	w := seq[i].wire
	w.Name = "again/" + seq[i].label
	w.Placement = strings.ToLower(w.Placement)
	return svcReq{label: seq[i].label + "/hit", wire: w, hitOf: i}
}

func (s *serviceMix) Round(ctx context.Context, r int) (Tally, error) {
	if r == 0 {
		s.hits0 = s.srv.Store().Stats().Hits
	}
	seqs := make([][]svcReq, svcClients)
	resps := make([][]svcResp, svcClients)
	errs := make([]error, svcClients)
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		seqs[c] = s.roundRequests(r, c)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, q := range seqs[c] {
				resp, err := s.do(ctx, q, s.bufs[c])
				if err != nil {
					errs[c] = fmt.Errorf("%s: %w", q.label, err)
					return
				}
				resps[c] = append(resps[c], resp)
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return Tally{}, err
	}
	var t Tally
	for c := range seqs {
		base := len(s.reqs)
		for i, q := range seqs[c] {
			resp := resps[c][i]
			if q.hitOf >= 0 {
				q.hitOf += base
				s.stats.HitMs = append(s.stats.HitMs, ms(resp.latency))
			} else {
				s.stats.MissMs = append(s.stats.MissMs, ms(resp.latency))
				acc, runs, err := s.work(q, resp)
				if err != nil {
					return t, err
				}
				t.Accesses += acc
				t.Runs += runs
			}
			s.stats.Events += resp.events
			s.stats.Requests++
			t.Attempted++
			s.reqs = append(s.reqs, q)
			s.resps = append(s.resps, resp)
		}
	}
	s.stats.StoreHits = s.srv.Store().Stats().Hits - s.hits0
	return t, nil
}

// work returns the simulated accesses and runs a miss executed: runs x
// trace length for an MBPTA campaign (the trace counted apart from the
// simulator), the attacker accesses of every round for a security one.
func (s *serviceMix) work(q svcReq, resp svcResp) (uint64, uint64, error) {
	if q.wire.Security == nil {
		return uint64(q.wire.Runs) * s.kinds[q.wire.Workload].total(), uint64(q.wire.Runs), nil
	}
	var res struct {
		Times []float64 `json:"times"`
	}
	if err := json.Unmarshal(resp.result, &res); err != nil {
		return 0, 0, err
	}
	var acc float64
	for _, x := range res.Times {
		acc += x
	}
	return uint64(acc), uint64(q.wire.Runs), nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// do performs one request: submit, read the NDJSON stream to its end
// line through buf, fetch the result.
func (s *serviceMix) do(ctx context.Context, q svcReq, buf []byte) (svcResp, error) {
	var out svcResp
	root := s.rec.Begin("service.request", 0, q.label)
	defer s.rec.Finish(root)
	start := time.Now()
	body, err := json.Marshal(q.wire)
	if err != nil {
		return out, err
	}
	id := s.rec.Begin("http.submit", root, q.label)
	var sub struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	out.status, err = s.call(ctx, http.MethodPost, "/v1/campaigns", body, &sub)
	s.rec.Finish(id)
	if err != nil {
		return out, err
	}
	out.id, out.cached = sub.ID, sub.Cached
	want := http.StatusAccepted
	if q.hitOf >= 0 {
		want = http.StatusOK
	}
	if out.status != want || out.cached != (q.hitOf >= 0) {
		return out, fmt.Errorf("submit answered %d cached=%v, want %d cached=%v", out.status, out.cached, want, q.hitOf >= 0)
	}

	id = s.rec.Begin("http.events", root, q.label)
	out.events, out.state, err = s.stream(ctx, out.id, buf)
	s.rec.Finish(id)
	if err != nil {
		return out, err
	}
	if out.state != "done" {
		return out, fmt.Errorf("stream ended in state %q", out.state)
	}

	id = s.rec.Begin("http.result", root, q.label)
	var st struct {
		State  string          `json:"state"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	status, err := s.call(ctx, http.MethodGet, "/v1/campaigns/"+out.id, nil, &st)
	s.rec.Finish(id)
	if err != nil {
		return out, err
	}
	if status != http.StatusOK || st.State != "done" || len(st.Result) == 0 {
		return out, fmt.Errorf("result answered %d state %q error %q", status, st.State, st.Error)
	}
	out.result = st.Result
	out.latency = time.Since(start)
	return out, nil
}

// call sends one JSON request and decodes the JSON answer into v.
func (s *serviceMix) call(ctx context.Context, method, path string, body []byte, v any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// stream reads the campaign's NDJSON events until the end line and
// returns the number of lines and the final state. Lines are read into
// buf, which grows up to 1 MB for a longer line.
func (s *serviceMix) stream(ctx context.Context, id string, buf []byte) (int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return 0, "", err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("events answered %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(buf, 1<<20)
	n := 0
	for sc.Scan() {
		n++
		var ev struct {
			Kind  string `json:"kind"`
			State string `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return n, "", fmt.Errorf("event line %d: %w", n, err)
		}
		if ev.Kind == "end" {
			return n, ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return n, "", err
	}
	return n, "", errors.New("event stream closed before its end line")
}

// svcResult is the part of a served result the checks compare.
type svcResult struct {
	Runs    int       `json:"runs"`
	HWM     float64   `json:"hwm"`
	Mean    float64   `json:"mean"`
	IL1Miss float64   `json:"il1_miss"`
	DL1Miss float64   `json:"dl1_miss"`
	L2Miss  float64   `json:"l2_miss"`
	Times   []float64 `json:"times"`
	Trace   struct {
		Accesses int `json:"accesses"`
	} `json:"trace"`
	Analysis *struct {
		Block   int     `json:"block"`
		PWCET12 float64 `json:"pwcet_1e12"`
		PWCET15 float64 `json:"pwcet_1e15"`
	} `json:"analysis"`
	Security *security.Result `json:"security"`
}

// Check compares every miss with a direct Engine.Run of the same decoded
// request, every hit with its miss, and the Store's hit counter with the
// number of hits submitted.
func (s *serviceMix) Check(ctx context.Context) error {
	eng := core.NewEngine(core.WithWorkers(Workers))
	hits := 0
	for i, q := range s.reqs {
		resp := s.resps[i]
		if q.hitOf >= 0 {
			hits++
			if !bytes.Equal(resp.result, s.resps[q.hitOf].result) {
				return fmt.Errorf("%s: hit result differs from its miss", q.label)
			}
			if resp.id != s.resps[q.hitOf].id {
				return fmt.Errorf("%s: hit served by job %s, miss ran as %s", q.label, resp.id, s.resps[q.hitOf].id)
			}
			continue
		}
		if err := s.checkMiss(ctx, eng, q, resp); err != nil {
			return fmt.Errorf("%s: %w", q.label, err)
		}
	}
	if s.stats.StoreHits != uint64(hits) {
		return fmt.Errorf("store hit counter rose by %d over the window, %d hits were submitted", s.stats.StoreHits, hits)
	}
	return nil
}

func (s *serviceMix) checkMiss(ctx context.Context, eng *core.Engine, q svcReq, resp svcResp) error {
	body, err := json.Marshal(q.wire)
	if err != nil {
		return err
	}
	wire, err := core.DecodeWireRequest(bytes.NewReader(body))
	if err != nil {
		return err
	}
	norm, err := wire.Normalize()
	if err != nil {
		return err
	}
	req, err := norm.Request()
	if err != nil {
		return err
	}
	want, err := eng.Run(ctx, req)
	if err != nil {
		return fmt.Errorf("direct run: %w", err)
	}
	var got svcResult
	if err := json.Unmarshal(resp.result, &got); err != nil {
		return err
	}
	switch {
	case !reflect.DeepEqual(got.Times, want.Times):
		return errors.New("served times differ from a direct run")
	case got.HWM != want.HWM() || got.Mean != want.Mean():
		return fmt.Errorf("served HWM/mean %v/%v, direct %v/%v", got.HWM, got.Mean, want.HWM(), want.Mean())
	case got.IL1Miss != want.IL1Miss || got.DL1Miss != want.DL1Miss || got.L2Miss != want.L2Miss:
		return errors.New("served miss ratios differ from a direct run")
	case got.Trace.Accesses != want.Trace.Accesses:
		return errors.New("served trace accounting differs from a direct run")
	case (got.Analysis == nil) != (want.Analysis == nil):
		return errors.New("analysed on one side only")
	case got.Analysis != nil && (got.Analysis.PWCET15 != want.Analysis.PWCET15 || got.Analysis.PWCET12 != want.Analysis.PWCET12):
		return fmt.Errorf("served pWCET %v, direct %v", got.Analysis.PWCET15, want.Analysis.PWCET15)
	}
	if want.Security != nil {
		// Compare in wire form: the served value went through JSON.
		raw, err := json.Marshal(want.Security)
		if err != nil {
			return err
		}
		var direct security.Result
		if err := json.Unmarshal(raw, &direct); err != nil {
			return err
		}
		if !reflect.DeepEqual(got.Security, &direct) {
			return errors.New("served security curves differ from a direct run")
		}
	} else if got.Security != nil {
		return errors.New("served a security block for a timing campaign")
	}
	return nil
}

// Stats returns the service layer's counts over the window.
func (s *serviceMix) Stats() ServiceStats { return s.stats }

func (s *serviceMix) Close() {
	if s.hs != nil {
		s.tr.CloseIdleConnections()
		_ = s.hs.Close() // the only error is the listener's, already closing
		<-s.served
	}
	if s.srv != nil {
		s.srv.Close()
	}
}
