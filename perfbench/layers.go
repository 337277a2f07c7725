package main

// Per-layer timing from outside the program: every wrapper here sits on a
// layer's public entry point (an http.Handler, the router's upstream
// http.RoundTripper, the serve.Backend handed to serve.New) and records a
// span while the tracer is on. Nothing is added inside the program.

import (
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"shmt"
	"shmt/internal/core"
	"shmt/internal/device"
	"shmt/internal/device/cpu"
	"shmt/internal/device/gpu"
	"shmt/internal/device/tpu"
	"shmt/internal/hlop"
	"shmt/internal/sampling"
	"shmt/internal/sched"
	"shmt/internal/serve"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// paperBenchmarks names the Table 2 benchmarks, in table order.
var paperBenchmarks = []string{"Blackscholes", "DCT8x8", "DWT", "FFT", "Histogram",
	"Hotspot", "Laplacian", "MF", "Sobel", "SRAD"}

type metricSpec struct{ name, unit string }

// perLayerMetrics is every metric a traced run reports, in BENCHMARK.json
// order. A layer that a workload does not pass through reports 0.
var perLayerMetrics = func() []metricSpec {
	m := []metricSpec{
		{"cluster.handler_ms_p50", "ms"},
		{"cluster.upstream_ms_p50", "ms"},
		{"cluster.self_ms_p50.proxy", "ms"},
		{"cluster.self_ms_p50.scatter", "ms"},
		{"cluster.attempts_per_req", "count"},
		{"cluster.scatter_parts_per_req", "count"},
		{"cluster.backend_max_share", "ratio"},
		{"serve.handler_ms_p50", "ms"},
		{"serve.pre_round_ms_p50", "ms"},
		{"serve.post_round_ms_p50", "ms"},
		{"serve.linger_ms_p50", "ms"},
		{"serve.batch_size_mean", "count"},
		{"core.round_ms_p50", "ms"},
		{"core.plan_ms_per_vop", "ms"},
		{"core.transfer_ms_per_vop", "ms"},
		{"core.execute_ms_per_vop", "ms"},
		{"core.aggregate_ms_per_vop", "ms"},
		{"core.plan_cache_hit_ratio", "ratio"},
		{"core.hlops_per_vop", "count"},
	}
	for _, b := range paperBenchmarks {
		m = append(m, metricSpec{"core.vop_ms_p50." + b, "ms"})
	}
	m = append(m, []metricSpec{
		{"sched.plan_ms_p50", "ms"},
		{"sched.critical_hlop_share", "ratio"},
		{"sched.hlop_share.cpu", "ratio"},
		{"sched.hlop_share.gpu", "ratio"},
		{"sched.hlop_share.tpu", "ratio"},
		{"device.cpu.ns_per_elem", "ns"},
		{"device.gpu.ns_per_elem", "ns"},
		{"device.tpu.ns_per_elem", "ns"},
		{"sim.makespan_ms_gmean", "ms"},
		{"sim.sched_overhead_pct", "%"},
		{"sim.comm_exposed_pct", "%"},
		{"sim.busy_pct.cpu", "%"},
		{"sim.busy_pct.gpu", "%"},
		{"sim.busy_pct.tpu", "%"},
		{"runtime.gc_cpu_pct", "%"},
		{"runtime.gc_per_kop", "count"},
		{"bench.verify_ms_per_op", "ms"},
		{"bench.trace_overhead_pct", "%"},
	}...)
	return m
}()

// handlerSpans wraps an http.Handler (Router.Handler or Server.Handler):
// one span per execute request, joined to the request by its trace ID.
func handlerSpans(tr *tracer, name, track string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on.Load() || r.URL.Path != "/v1/execute" {
			h.ServeHTTP(w, r)
			return
		}
		s := span{name: name, track: track, traceID: r.Header.Get(serve.TraceHeader), start: tr.now()}
		h.ServeHTTP(w, r)
		s.end = tr.now()
		tr.add(s)
	})
}

// upstreamSpans wraps the router's upstream transport (PoolConfig.Client):
// one span per backend call, from send until the response body is read to
// its end or closed.
type upstreamSpans struct {
	tr   *tracer
	base http.RoundTripper
}

func (u *upstreamSpans) RoundTrip(req *http.Request) (*http.Response, error) {
	if !u.tr.on.Load() || req.URL.Path != "/v1/execute" {
		return u.base.RoundTrip(req)
	}
	s := span{name: "cluster.upstream", track: "upstream " + req.URL.Host,
		traceID: req.Header.Get(serve.TraceHeader), start: u.tr.now()}
	resp, err := u.base.RoundTrip(req)
	if err != nil {
		s.end = u.tr.now()
		u.tr.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		s.end = u.tr.now()
		u.tr.add(s)
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// roundRec is one micro-batch round seen by backendSpans.
type roundRec struct {
	wall   core.StageWall
	nVOPs  int
	reps   []*shmt.Report
	plat   platRun
	ids    []string
	failed bool
}

// backendSpans wraps the serve.Backend handed to serve.New: one core.round
// span per ExecuteBatch call, carrying the trace IDs of the requests it
// coalesced, and the round's reports for the core, sched and sim metrics.
type backendSpans struct {
	sess  *shmt.Session
	tr    *tracer
	track string

	mu     sync.Mutex
	rounds []roundRec
}

func (b *backendSpans) QuarantinedDevices() []string { return b.sess.QuarantinedDevices() }

func (b *backendSpans) ExecuteBatch(reqs []shmt.BatchRequest) (*shmt.BatchResult, error) {
	if !b.tr.on.Load() {
		return b.sess.ExecuteBatch(reqs)
	}
	ids := make([]string, len(reqs))
	for i, r := range reqs {
		ids[i] = r.TraceID
	}
	s := span{name: "core.round", track: b.track, ids: ids, start: b.tr.now()}
	res, err := b.sess.ExecuteBatch(reqs)
	s.end = b.tr.now()
	b.tr.add(s)
	rec := roundRec{nVOPs: len(reqs), ids: ids, failed: err != nil}
	if err == nil {
		rec.wall = res.StageWall
		rec.reps = res.Reports
		rec.plat = platRun{makespan: res.Makespan, busy: res.Busy, exposed: res.Comm.ExposedTime}
		if len(res.Reports) > 0 {
			rec.plat.overhead = res.Reports[0].SchedOverhead // the round's, on every report
		}
	}
	b.mu.Lock()
	b.rounds = append(b.rounds, rec)
	b.mu.Unlock()
	return res, err
}

func (b *backendSpans) snapshot() []roundRec {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]roundRec(nil), b.rounds...)
}

// vopSummary is what the sched metrics need from one VOP's report.
type vopSummary struct {
	class           int
	makespan        float64
	hlops, critical int
	devHLOPs        map[string]int
}

func summarize(class int, r *shmt.Report) vopSummary {
	return vopSummary{class: class, makespan: r.Makespan, hlops: r.HLOPs,
		critical: r.CriticalHLOPs, devHLOPs: r.DeviceHLOPs}
}

// platRun is one run of the simulated platform: a Session.Execute, or a
// micro-batch round (whose per-VOP reports carry no busy or transfer
// accounting, so the round's own figures are used). group is the class for
// Execute runs and 0 for rounds.
type platRun struct {
	group              int
	makespan, overhead float64
	busy               map[string]float64
	exposed            float64
}

var devices = []string{"cpu", "gpu", "tpu"}

// simLayers derives the sched and simulated-platform metrics from the VOP
// reports and platform runs of the traced rounds.
func simLayers(vs []vopSummary, runs []platRun, nClasses int, out map[string]float64) {
	if len(vs) == 0 || len(runs) == 0 {
		return
	}
	var hl, crit int
	dev := map[string]int{}
	perMk := make([][]float64, nClasses)
	for _, v := range vs {
		hl += v.hlops
		crit += v.critical
		for d, n := range v.devHLOPs {
			dev[d] += n
		}
		perMk[v.class] = append(perMk[v.class], v.makespan*1e3)
	}
	var meds []float64
	for _, m := range perMk {
		if len(m) > 0 {
			meds = append(meds, median(m))
		}
	}
	var mk, so float64
	busy := map[string]float64{}
	grpExp := map[int]float64{}
	grpBusy := map[int]float64{}
	for _, r := range runs {
		mk += r.makespan
		so += r.overhead
		for d, t := range r.busy {
			busy[d] += t
			grpBusy[r.group] += t
		}
		grpExp[r.group] += r.exposed
	}
	var comm []float64
	for g, b := range grpBusy {
		if b > 0 {
			comm = append(comm, 100*grpExp[g]/b)
		}
	}
	out["sim.makespan_ms_gmean"] = gmean(meds)
	out["sim.sched_overhead_pct"] = 100 * so / mk
	out["sim.comm_exposed_pct"] = gmean(comm)
	for _, d := range devices {
		out["sim.busy_pct."+d] = 100 * busy[d] / mk
		out["sched.hlop_share."+d] = float64(dev[d]) / float64(hl)
	}
	out["sched.critical_hlop_share"] = float64(crit) / float64(hl)
	out["core.hlops_per_vop"] = float64(hl) / float64(len(vs))
}

// microVOP is one VOP the traced run times the scheduler and the devices on
// directly, outside the engine.
type microVOP struct {
	op      vop.Opcode
	inputs  []*tensor.Matrix
	attrs   map[string]float64
	k       float64 // QAWS critical fraction (0 = policy default)
	scale   float64 // virtual-platform slowdown
	repeats int
}

// microLayers times hlop.Partition plus QAWS-TS Policy.Assign on each VOP
// (sched.plan_ms_p50) and Device.ExecuteInto on one partition-sized tile of
// each VOP per device (device.<dev>.ns_per_elem, geometric mean over VOPs).
func microLayers(vs []microVOP) map[string]float64 {
	out := map[string]float64{}
	var plans []float64
	perDev := map[string][]float64{}
	for _, m := range vs {
		scale := m.scale
		if scale < 1 {
			scale = 1
		}
		reg, err := device.NewRegistry(cpu.New(scale), gpu.New(gpu.Config{Slowdown: scale}),
			tpu.New(tpu.Config{Slowdown: scale}))
		if err != nil {
			continue
		}
		pol := sched.QAWS{Assignment: sched.TopK, Method: sampling.Striding,
			Rate: 1.0 / (1 << 15), K: m.k}
		v := &vop.VOP{Op: m.op, Inputs: m.inputs, Attrs: m.attrs}
		var hs []*hlop.HLOP
		for i := 0; i < m.repeats; i++ {
			t := time.Now()
			hs, err = hlop.Partition(v, hlop.Spec{TargetPartitions: 64})
			if err == nil {
				_, err = pol.Assign(&sched.Context{Reg: reg, Seed: sessionSeed, HostScale: scale}, hs)
			}
			if err != nil {
				break
			}
			plans = append(plans, float64(time.Since(t).Nanoseconds())/1e6)
		}
		if len(hs) == 0 {
			continue
		}
		h := hs[0]
		for _, d := range reg.Devices() {
			var ns []float64
			for i := 0; i < m.repeats; i++ {
				t := time.Now()
				res, err := d.ExecuteInto(h.Op, h.Inputs, nil, h.Attrs)
				el := time.Since(t)
				if err != nil {
					break
				}
				tensor.PutMatrix(res)
				ns = append(ns, float64(el.Nanoseconds())/float64(h.Elems))
			}
			if len(ns) > 0 {
				perDev[d.Name()] = append(perDev[d.Name()], median(ns))
			}
		}
	}
	out["sched.plan_ms_p50"] = median(plans)
	for _, d := range devices {
		out["device."+d+".ns_per_elem"] = gmean(perDev[d])
	}
	return out
}

// serveJoin matches each serve.handler span to the round that carried its
// request: the first round on the same backend holding its trace ID and
// lying within the handler's interval. It returns pre-round and post-round
// times in ms.
func serveJoin(spans []span) (pre, post []float64) {
	type key struct{ track, id string }
	rounds := map[key][]span{}
	for _, s := range spans {
		if s.name != "core.round" {
			continue
		}
		for _, id := range s.ids {
			k := key{s.track, id}
			rounds[k] = append(rounds[k], s)
		}
	}
	for _, s := range spans {
		if s.name != "serve.handler" {
			continue
		}
		cands := rounds[key{s.track, s.traceID}]
		sort.Slice(cands, func(i, j int) bool { return cands[i].start < cands[j].start })
		for _, r := range cands {
			if r.start >= s.start && r.end <= s.end {
				pre = append(pre, float64(r.start-s.start)/1e6)
				post = append(post, float64(s.end-r.end)/1e6)
				break
			}
		}
	}
	return pre, post
}
