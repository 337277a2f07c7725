package main

// serve-small and route-wire: backends are serve.New over a shmt.Session
// configured like shmtserved's defaults, the router is cluster.NewRouter
// configured like shmtrouterd's, all in this process, driven over loopback
// HTTP by closed-loop clients (one per CPU).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"shmt"
	"shmt/internal/cluster"
	"shmt/internal/core"
	"shmt/internal/serve"
	"shmt/internal/telemetry"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// servingClass is one request class: an op at a shape, sent by a tenant.
type servingClass struct {
	name   string
	op     string
	shapes [][2]int // of the inputs
	// lo, hi bound the uniform input values.
	lo, hi float64
	// scatter marks the class the router scatter-gathers.
	scatter bool
}

// servingVariant is one pre-encoded request and what its answer must be.
type servingVariant struct {
	body   []byte
	inputs []*tensor.Matrix
	ref    refOut
	gpuMk  float64 // GPU-baseline simulated makespan of the same VOP
}

type servingOp struct {
	class, variant int // variant -1 is the class's guard variant
	tenant         string
	malformed      []byte // body of a deliberately invalid request
}

func (in *servingInputs) variant(op servingOp) servingVariant {
	if op.variant < 0 {
		return in.guard[op.class]
	}
	return in.variants[op.class][op.variant]
}

type servingInputs struct {
	w         *workload
	classes   []servingClass
	variants  [][]servingVariant
	guard     []servingVariant // one per class, from guardSeed
	backends  int
	router    bool
	scatterAt int
	tenants   map[string]serve.TenantConfig
	seq       []servingOp // the round's valid requests; each round shuffles them
	orderSeed int64
	bad       []servingOp // the round's malformed requests, sent one at a time
}

// variantsPer is how many input variants of each serve-small class a round
// sends (route-wire sends two of its larger ones).
const variantsPer = 4

func serveSmall() *workload {
	classes := []servingClass{
		{name: "add", op: "add", shapes: [][2]int{{32, 32}, {32, 32}}, lo: -1, hi: 1},
		{name: "multiply", op: "multiply", shapes: [][2]int{{32, 32}, {32, 32}}, lo: -1, hi: 1},
		{name: "relu", op: "relu", shapes: [][2]int{{32, 32}}, lo: -1, hi: 1},
		{name: "reduce_sum", op: "reduce_sum", shapes: [][2]int{{32, 32}}, lo: 0.5, hi: 1.5},
		{name: "Sobel", op: "Sobel", shapes: [][2]int{{32, 32}}, lo: -1, hi: 1},
		{name: "GEMM", op: "GEMM", shapes: [][2]int{{32, 32}, {32, 32}}, lo: -1, hi: 1},
	}
	w := &workload{name: "serve-small", tail: 95, roundsPerSec: 15}
	for _, c := range classes {
		w.classes = append(w.classes, c.name)
	}
	w.classes = append(w.classes, "malformed")
	w.malformed = map[int]bool{len(classes): true}
	w.prepare = func(seed int64) (inputs, error) {
		in := &servingInputs{w: w, classes: classes, backends: 1,
			// Unequal weights, as -tenant gold:3 -tenant bronze:1.
			tenants: map[string]serve.TenantConfig{"gold": {Weight: 3}, "bronze": {Weight: 1}}}
		tenantOf := func(v int) string {
			if v%2 == 0 {
				return "gold"
			}
			return "bronze"
		}
		if err := in.generate(seed, tenantOf); err != nil {
			return nil, err
		}
		// The malformed class: a wrong input count, mismatched shapes and an
		// empty input. Each is sent while nothing else is in flight.
		for _, body := range []string{
			`{"op":"add","inputs":[{"rows":2,"cols":2,"data":[1,2,3,4]}]}`,
			`{"op":"add","inputs":[{"rows":2,"cols":2,"data":[1,2,3,4]},{"rows":1,"cols":2,"data":[1,2]}]}`,
			`{"op":"relu","inputs":[{"rows":0,"cols":0,"data":[]}]}`,
		} {
			in.bad = append(in.bad, servingOp{class: len(classes), tenant: "gold", malformed: []byte(body)})
		}
		return in, nil
	}
	return w
}

func routeWire() *workload {
	classes := []servingClass{
		{name: "add-256-scatter", op: "add", shapes: [][2]int{{256, 256}, {256, 256}}, lo: -1, hi: 1, scatter: true},
		{name: "Sobel-256-proxy", op: "Sobel", shapes: [][2]int{{256, 256}}, lo: -1, hi: 1},
		{name: "multiply-128-proxy", op: "multiply", shapes: [][2]int{{128, 128}, {128, 128}}, lo: -1, hi: 1},
		{name: "GEMM-128-proxy", op: "GEMM", shapes: [][2]int{{128, 128}, {128, 128}}, lo: -1, hi: 1},
	}
	w := &workload{name: "route-wire", tail: 90, roundsPerSec: 2}
	for _, c := range classes {
		w.classes = append(w.classes, c.name)
	}
	w.prepare = func(seed int64) (inputs, error) {
		// The scatter threshold sits at the 256² class, so add-256 scatters
		// and everything smaller (and the halo op) is proxied whole.
		in := &servingInputs{w: w, classes: classes, backends: 2, router: true, scatterAt: 256 * 256}
		err := in.generate(seed, func(int) string { return "" })
		return in, err
	}
	return w
}

// generate makes each class's variants from the seed, a guard variant from
// the fixed guardSeed (the warm-up pass's, so the quality and speed-up
// figures repeat exactly whatever --seed is), their FP64 references and
// GPU-baseline makespans, and the round's requests.
func (in *servingInputs) generate(seed int64, tenantOf func(v int) string) error {
	rng := rand.New(rand.NewSource(inputSeed(seed)))
	grng := rand.New(rand.NewSource(guardSeed))
	gpuSess, err := shmt.NewSession(shmt.Config{Policy: shmt.PolicyGPUBaseline, TargetPartitions: 64, Seed: sessionSeed})
	if err != nil {
		return err
	}
	defer gpuSess.Close()
	perClass := variantsPer
	if in.router {
		perClass = 2
	}
	for _, c := range in.classes {
		var vs []servingVariant
		for v := 0; v < perClass; v++ {
			sv, err := makeVariant(rng, c, gpuSess)
			if err != nil {
				return err
			}
			vs = append(vs, sv)
		}
		in.variants = append(in.variants, vs)
		g, err := makeVariant(grng, c, gpuSess)
		if err != nil {
			return err
		}
		in.guard = append(in.guard, g)
	}
	for c := range in.classes {
		for v := range in.variants[c] {
			in.seq = append(in.seq, servingOp{class: c, variant: v, tenant: tenantOf(v)})
		}
	}
	in.orderSeed = orderSeed(seed)
	return nil
}

func makeVariant(rng *rand.Rand, c servingClass, gpuSess *shmt.Session) (servingVariant, error) {
	op, ok := vop.Parse(c.op)
	if !ok {
		return servingVariant{}, fmt.Errorf("unknown op %q", c.op)
	}
	var ms []mat
	var ts []*tensor.Matrix
	wire := make([]map[string]any, 0, len(c.shapes))
	for _, sh := range c.shapes {
		m := newMat(sh[0], sh[1])
		for i := range m.data {
			m.data[i] = c.lo + (c.hi-c.lo)*rng.Float64()
		}
		ms = append(ms, m)
		t, err := tensor.FromSlice(m.rows, m.cols, m.data)
		if err != nil {
			return servingVariant{}, err
		}
		ts = append(ts, t)
		wire = append(wire, map[string]any{"rows": m.rows, "cols": m.cols, "data": m.data})
	}
	body, err := json.Marshal(map[string]any{"op": c.op, "inputs": wire})
	if err != nil {
		return servingVariant{}, err
	}
	rep, err := gpuSess.Execute(op, ts, nil)
	if err != nil {
		return servingVariant{}, fmt.Errorf("%s gpu-baseline: %w", c.name, err)
	}
	return servingVariant{body: body, inputs: ts, ref: servingRef(c.op, ms), gpuMk: rep.Makespan}, nil
}

func servingRef(op string, ms []mat) refOut {
	switch op {
	case "add":
		return refAdd(ms[0], ms[1])
	case "multiply":
		return refMultiply(ms[0], ms[1])
	case "relu":
		return refRelu(ms[0])
	case "reduce_sum":
		return refReduceSum(ms[0])
	case "Sobel":
		return refSobel(ms[0])
	case "GEMM":
		return refGEMM(ms[0], ms[1])
	}
	panic("no reference for " + op)
}

func (in *servingInputs) micro() []microVOP {
	var vs []microVOP
	for c, cl := range in.classes {
		op, _ := vop.Parse(cl.op)
		vs = append(vs, microVOP{op: op, inputs: in.variants[c][0].inputs, repeats: 50})
	}
	return vs
}

// Daemon defaults (cmd/shmtserved, cmd/shmtrouterd). Logs go through the
// daemons' text handler at info level into io.Discard: their formatting
// cost stays in the measurement, their output does not.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

type httpServer struct {
	hs   *http.Server
	done chan struct{}
	addr string
}

func listen(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{hs: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}), addr: ln.Addr().String()}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return s, nil
}

func (s *httpServer) shutdown(ctx context.Context) {
	_ = s.hs.Shutdown(ctx)
	<-s.done
}

type servingSystem struct {
	in       *servingInputs
	tr       *tracer
	sessions []*shmt.Session
	servers  []*serve.Server
	spans    []*backendSpans
	https    []*httpServer
	router   *cluster.Router
	upstream *http.Transport
	client   *http.Client
	target   string
	workers  int
	// order shuffles each round's requests: the run's sequence is fixed by
	// the seed, and every pairing of concurrent classes comes up.
	order *rand.Rand

	nextID  atomic.Int64
	classOf sync.Map // trace ID -> class, for traced requests

	mu      sync.Mutex
	lingers []float64

	pcStart []shmt.PlanCacheStats
}

func (in *servingInputs) build(tr *tracer) (system, error) {
	s := &servingSystem{in: in, tr: tr, workers: runtime.NumCPU(),
		order: rand.New(rand.NewSource(in.orderSeed))}
	var addrs []string
	for i := 0; i < in.backends; i++ {
		sess, err := shmt.NewSession(shmt.Config{
			Policy: shmt.PolicyQAWSTS, TargetPartitions: 64, Seed: sessionSeed,
			Prefetch:  shmt.PrefetchConfig{Depth: shmt.DefaultPrefetchDepth},
			Telemetry: shmt.Telemetry{Enabled: true},
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.sessions = append(s.sessions, sess)
		track := "backend " + strconv.Itoa(i)
		var be serve.Backend = sess
		if tr != nil {
			bs := &backendSpans{sess: sess, tr: tr, track: track}
			s.spans = append(s.spans, bs)
			be = bs
		}
		srv := serve.New(be, serve.Config{
			MaxBatch: 16, MaxLinger: 2 * time.Millisecond, Tenants: in.tenants,
			DefaultTimeout: 30 * time.Second, RetryAfter: time.Second,
			Spans: sess.TelemetryRecorder(), Tracing: true,
			FlightRecorderSize: telemetry.DefaultFlightRecorderSize, SlowSLO: 100 * time.Millisecond,
			Logger: discardLogger(),
		})
		s.servers = append(s.servers, srv)
		h := srv.Handler()
		if tr != nil {
			h = handlerSpans(tr, "serve.handler", track, h)
		}
		hs, err := listen(h)
		if err != nil {
			s.close()
			return nil, err
		}
		s.https = append(s.https, hs)
		addrs = append(addrs, hs.addr)
	}
	s.target = addrs[0]
	if in.router {
		telemetry.Enable()
		s.upstream = &http.Transport{MaxIdleConnsPerHost: 32, IdleConnTimeout: 90 * time.Second}
		var rt http.RoundTripper = s.upstream
		if tr != nil {
			rt = &upstreamSpans{tr: tr, base: s.upstream}
		}
		router, err := cluster.NewRouter(cluster.RouterConfig{
			Pool: cluster.PoolConfig{
				Vnodes: cluster.DefaultVnodes, LoadFactor: 1.25,
				ProbeInterval: 500 * time.Millisecond, ProbeTimeout: 2 * time.Second,
				Breaker: cluster.BreakerConfig{Threshold: 3, Cooldown: time.Second},
				Client:  &http.Client{Transport: rt},
				Logger:  discardLogger(),
			},
			Seeds: addrs, MaxAttempts: 3, BackendTimeout: 30 * time.Second,
			ScatterThreshold: in.scatterAt, MaxFanout: 4, RetryAfter: time.Second,
			Logger: discardLogger(),
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.router = router
		h := router.Handler()
		if tr != nil {
			h = handlerSpans(tr, "cluster.handler", "router", h)
		}
		hs, err := listen(h)
		if err != nil {
			s.close()
			return nil, err
		}
		s.https = append(s.https, hs)
		s.target = hs.addr
	}
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: s.workers, MaxConnsPerHost: s.workers, DisableCompression: true,
	}}
	return s, nil
}

func (s *servingSystem) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	for i := len(s.https) - 1; i >= 0; i-- {
		s.https[i].shutdown(ctx)
	}
	if s.router != nil {
		_ = s.router.Shutdown(ctx)
	}
	if s.upstream != nil {
		s.upstream.CloseIdleConnections()
	}
	for _, srv := range s.servers {
		_ = srv.Shutdown(ctx)
	}
	for _, sess := range s.sessions {
		sess.Close()
	}
	s.https, s.servers, s.sessions, s.router = nil, nil, nil, nil
}

type executeResponse struct {
	Output struct {
		Rows int       `json:"rows"`
		Cols int       `json:"cols"`
		Data []float64 `json:"data"`
	} `json:"output"`
	MakespanSeconds float64 `json:"makespan_seconds"`
	Trace           *struct {
		Stages telemetry.StageBreakdown `json:"stages"`
	} `json:"trace"`
}

// do sends one request and judges the answer. The latency runs from send
// to the last response byte; decoding and checking come after it.
func (s *servingSystem) do(op servingOp, traced bool) (opRec, *executeResponse) {
	rec := opRec{class: op.class, traced: traced}
	body := op.malformed
	if body == nil {
		body = s.in.variant(op).body
	}
	id := "pb-" + strconv.FormatInt(s.nextID.Add(1), 10)
	if traced {
		s.classOf.Store(id, op.class)
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+s.target+"/v1/execute", bytes.NewReader(body))
	if err != nil {
		rec.failed = true
		noteFailure(err)
		return rec, nil
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.TraceHeader, id)
	if op.tenant != "" {
		req.Header.Set(serve.TenantHeader, op.tenant)
	}
	var ts int64
	if traced {
		ts = s.tr.now()
	}
	t := time.Now()
	resp, err := s.client.Do(req)
	var payload []byte
	if err == nil {
		payload, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rec.ms = float64(time.Since(t).Nanoseconds()) / 1e6
	if traced {
		s.tr.add(span{name: "client", track: "client", traceID: id, start: ts, end: s.tr.now()})
	}
	if err != nil {
		rec.failed = true
		noteFailure(fmt.Errorf("%s: %w", s.in.w.classes[op.class], err))
		return rec, nil
	}
	if op.malformed != nil {
		// A malformed request succeeds when the program refuses it as the
		// client's fault.
		if resp.StatusCode < 400 || resp.StatusCode > 499 {
			rec.failed = true
		}
		return rec, nil
	}
	if resp.StatusCode != http.StatusOK {
		rec.failed = true
		noteFailure(fmt.Errorf("%s: http %d: %.200s", s.in.w.classes[op.class], resp.StatusCode, payload))
		return rec, nil
	}
	var out executeResponse
	err = timeVerify(func() error {
		if err := json.Unmarshal(payload, &out); err != nil {
			return fmt.Errorf("decode response: %w", err)
		}
		return checkWithin(out.Output.Data, out.Output.Rows, out.Output.Cols, s.in.variant(op).ref)
	})
	if err != nil {
		noteWrong(fmt.Errorf("%s variant %d: %w", s.in.w.classes[op.class], op.variant, err))
	}
	if traced && out.Trace != nil {
		s.mu.Lock()
		s.lingers = append(s.lingers, out.Trace.Stages.BatchLinger*1e3)
		s.mu.Unlock()
	}
	return rec, &out
}

// drive sends ops from the closed-loop clients: each sends its next
// request once its previous one is answered.
func (s *servingSystem) drive(ops []servingOp, traced bool) []opRec {
	recs := make([]opRec, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				recs[i], _ = s.do(ops[i], traced)
			}
		}()
	}
	wg.Wait()
	return recs
}

// warm sends every class once, one request at a time (the values the
// sim_speedup and quality metrics are taken from), then one concurrent
// round without the malformed class, so caches and connections are warm.
func (s *servingSystem) warm() (guard, error) {
	g := guard{speedup: map[int]float64{}, mape: map[int]float64{}}
	for c, cl := range s.in.classes {
		op := servingOp{class: c, variant: -1}
		rec, out := s.do(op, false)
		if rec.failed || out == nil {
			return g, fmt.Errorf("%s failed", cl.name)
		}
		v := s.in.variant(op)
		g.mape[c] = 100 * mape(v.ref.want.data, out.Output.Data)
		// A scattered response's makespan_seconds is the router's wall
		// time, not a simulated makespan, so it has no speed-up.
		if !cl.scatter && out.MakespanSeconds > 0 {
			g.speedup[c] = v.gpuMk / out.MakespanSeconds
		}
	}
	for _, r := range s.drive(s.in.seq, false) {
		if r.failed {
			return g, errors.New("warm-up round had failures")
		}
	}
	s.pcStart = s.pcStart[:0]
	for _, sess := range s.sessions {
		s.pcStart = append(s.pcStart, sess.PlanCacheStats())
	}
	return g, nil
}

func (s *servingSystem) round(traced bool) ([]opRec, error) {
	ops := append([]servingOp(nil), s.in.seq...)
	s.order.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	recs := s.drive(ops, traced)
	for _, op := range s.in.bad {
		r, _ := s.do(op, traced)
		recs = append(recs, r)
	}
	return recs, nil
}

func (s *servingSystem) classOfID(id string) (int, bool) {
	v, ok := s.classOf.Load(id)
	if !ok {
		return 0, false
	}
	return v.(int), true
}

func (s *servingSystem) layers(spans []span) map[string]float64 {
	out := map[string]float64{}
	var handler, serveH, rounds []float64
	upSum := map[string]float64{}
	upCount := map[string]int{}
	perHost := map[string]int{}
	upTotal := 0
	for _, sp := range spans {
		d := float64(sp.dur()) / 1e6
		switch sp.name {
		case "cluster.handler":
			handler = append(handler, d)
		case "cluster.upstream":
			upSum[sp.traceID] += d
			upCount[sp.traceID]++
			perHost[sp.track]++
			upTotal++
		case "serve.handler":
			serveH = append(serveH, d)
		case "core.round":
			rounds = append(rounds, d)
		}
	}
	if s.router != nil {
		out["cluster.handler_ms_p50"] = median(handler)
		var ups []float64
		for _, v := range upSum {
			ups = append(ups, v)
		}
		out["cluster.upstream_ms_p50"] = median(ups)
		var selfProxy, selfScatter []float64
		var attempts, parts []float64
		for i, self := range selfTimes(spans, "cluster.handler", "cluster.upstream") {
			c, ok := s.classOfID(spans[i].traceID)
			if !ok {
				continue
			}
			n := float64(upCount[spans[i].traceID])
			if s.in.classes[c].scatter {
				selfScatter = append(selfScatter, float64(self)/1e6)
				parts = append(parts, n)
			} else {
				selfProxy = append(selfProxy, float64(self)/1e6)
				attempts = append(attempts, n)
			}
		}
		out["cluster.self_ms_p50.proxy"] = median(selfProxy)
		out["cluster.self_ms_p50.scatter"] = median(selfScatter)
		out["cluster.attempts_per_req"] = mean(attempts)
		out["cluster.scatter_parts_per_req"] = mean(parts)
		maxN := 0
		for _, n := range perHost {
			maxN = max(maxN, n)
		}
		if upTotal > 0 {
			out["cluster.backend_max_share"] = float64(maxN) / float64(upTotal)
		}
	}
	out["serve.handler_ms_p50"] = median(serveH)
	pre, post := serveJoin(spans)
	out["serve.pre_round_ms_p50"] = median(pre)
	out["serve.post_round_ms_p50"] = median(post)
	s.mu.Lock()
	out["serve.linger_ms_p50"] = median(s.lingers)
	s.mu.Unlock()
	out["core.round_ms_p50"] = median(rounds)

	var sizes []float64
	var wall core.StageWall
	nv := 0
	var vs []vopSummary
	var runs []platRun
	for _, bs := range s.spans {
		for _, r := range bs.snapshot() {
			sizes = append(sizes, float64(r.nVOPs))
			if r.failed {
				continue
			}
			wall.Plan += r.wall.Plan
			wall.Transfer += r.wall.Transfer
			wall.Execute += r.wall.Execute
			wall.Aggregate += r.wall.Aggregate
			nv += r.nVOPs
			runs = append(runs, r.plat)
			for i, rep := range r.reps {
				if c, ok := s.classOfID(r.ids[i]); ok {
					vs = append(vs, summarize(c, rep))
				}
			}
		}
	}
	out["serve.batch_size_mean"] = mean(sizes)
	if nv > 0 {
		out["core.plan_ms_per_vop"] = wall.Plan * 1e3 / float64(nv)
		out["core.transfer_ms_per_vop"] = wall.Transfer * 1e3 / float64(nv)
		out["core.execute_ms_per_vop"] = wall.Execute * 1e3 / float64(nv)
		out["core.aggregate_ms_per_vop"] = wall.Aggregate * 1e3 / float64(nv)
	}
	var hits, lookups uint64
	for i, sess := range s.sessions {
		st := sess.PlanCacheStats()
		hits += st.Hits - s.pcStart[i].Hits
		lookups += st.Hits + st.Misses - s.pcStart[i].Hits - s.pcStart[i].Misses
	}
	if lookups > 0 {
		out["core.plan_cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
	simLayers(vs, runs, len(s.in.classes), out)
	return out
}
