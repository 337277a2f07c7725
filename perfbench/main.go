// Command perfbench is the repository's end-to-end benchmark. It hosts the
// layers a workload measures in one process — shmt.Session backends behind
// serve.New, and a cluster.Router in front of them — drives them over
// loopback HTTP from closed-loop clients (or calls Session.Execute
// directly for the offline workload), checks every output against the
// benchmark's own FP64 computations, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload serve-small --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// wraps each layer's public entry point, records spans around the calls in
// alternate rounds, reports the per-layer metrics and writes the spans as
// Perfetto JSON under .bench_build/traces/. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// setupReps is how many times a run builds and warms its system; setup_s
// is the median, and the last build is the one measured.
const setupReps = 5

// endToEndMetrics is every metric an untraced run reports, in
// BENCHMARK.json order.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"rss_peak_mb", "MiB"},
	{"sim_speedup_gmean", "x"},
	{"quality_mape_pct", "%"},
}

// windowLen is the length of the windows throughput and CPU time are
// measured over; a run reports the median window, so a stall of the host
// that lasts a few seconds moves a few windows, not the figure.
const windowLen = 2 * time.Second

// window is one stretch of whole rounds in the timed phase.
type window struct {
	start     time.Time
	ops       int     // operations that completed in the window
	wall, cpu float64 // seconds
}

// opRec is one operation's outcome as its caller saw it.
type opRec struct {
	class  int
	ms     float64 // send to last response byte, or one Execute
	failed bool
	traced bool // ran in a traced round
}

// guard holds the values the paper's figures are computed from, taken from
// the warm-up pass in which one operation is in flight at a time.
type guard struct {
	speedup map[int]float64 // class -> GPU-baseline makespan / served makespan
	mape    map[int]float64 // class -> output MAPE against exact FP64, in %
}

// system is one built instance of a workload's layers.
type system interface {
	// warm runs every class once, one at a time, and checks the outputs.
	warm() (guard, error)
	// round runs the workload's fixed operation sequence once.
	round(traced bool) ([]opRec, error)
	// layers derives the workload's per-layer metrics from the spans of
	// the traced rounds.
	layers(spans []span) map[string]float64
	close()
}

// workload describes one traffic mix.
type workload struct {
	name    string
	classes []string
	// tail is the percentile lat_tail_ms is reported at.
	tail float64
	// roundsPerSec is the workload's round rate on the reference host: a
	// run of --seconds s times ceil(seconds*roundsPerSec) rounds, so every
	// run of a length repeats the same operations, in the same number.
	roundsPerSec float64
	// malformed lists the classes that are sent deliberately invalid.
	malformed map[int]bool
	prepare   func(seed int64) (inputs, error)
}

// inputs are a workload's generated inputs and references; build turns them
// into a running system.
type inputs interface {
	build(tr *tracer) (system, error)
	// micro lists the VOPs the traced run times the scheduler and device
	// layers on directly.
	micro() []microVOP
}

var verifyNs atomic.Int64 // time spent in the benchmark's own output checks

// wrongOps counts outputs that failed a check; any makes the run incorrect.
var wrongOps, failedOps atomic.Int64

func noteWrong(err error) {
	if wrongOps.Add(1) <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: wrong output:", err)
	}
}

// noteFailure reports an operation that got no valid answer.
func noteFailure(err error) {
	if failedOps.Add(1) <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", err)
	}
}

func timeVerify(f func() error) error {
	t := time.Now()
	err := f()
	verifyNs.Add(int64(time.Since(t)))
	return err
}

func main() {
	name := flag.String("workload", "", "serve-small, route-wire or paper-offline")
	seed := flag.Int64("seed", 1, "seed for inputs and operation order")
	seconds := flag.Float64("seconds", 15, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 records per-layer spans and reports per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloads() map[string]*workload {
	return map[string]*workload{
		"serve-small":   serveSmall(),
		"route-wire":    routeWire(),
		"paper-offline": paperOffline(),
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	w, ok := workloads()[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	fmt.Printf("# workload %s seed %d (inputs %d, order %d, sessions %d) seconds %g trace %v\n",
		name, seed, inputSeed(seed), orderSeed(seed), sessionSeed, seconds, traced)
	fmt.Printf("# host nproc %d GOMAXPROCS %d %s cpu %q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	yard0 := yardstick()
	fmt.Printf("# yardstick start %.3f ms\n", yard0)

	in, err := w.prepare(seed)
	if err != nil {
		return fmt.Errorf("prepare inputs: %w", err)
	}
	var tr *tracer // nil: no wrappers at all in an untraced run
	if traced {
		tr = newTracer()
	}
	var sys system
	var g guard
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := in.build(tr)
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		g, err = s.warm()
		if err != nil {
			s.close()
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			s.close()
		} else {
			sys = s
		}
	}
	defer sys.close()

	verifyNs.Store(0)
	rt0 := readRuntime()
	cpu0 := cpuTime()
	var recs []opRec
	var wins []window
	win := window{start: time.Now(), cpu: cpu0}
	start := win.start
	rounds := int(math.Ceil(seconds * w.roundsPerSec))
	rounds += rounds % 2 // traced runs alternate: as many traced rounds as untraced
	for r := 0; r < rounds; r++ {
		on := traced && r%2 == 1
		if tr != nil {
			tr.on.Store(on)
		}
		rr, err := sys.round(on)
		if err != nil {
			return err
		}
		recs = append(recs, rr...)
		for _, rec := range rr {
			if !rec.failed {
				win.ops++
			}
		}
		if now := time.Now(); now.Sub(win.start) >= windowLen {
			c := cpuTime()
			wins = append(wins, window{start: win.start, ops: win.ops,
				wall: now.Sub(win.start).Seconds(), cpu: c - win.cpu})
			win = window{start: now, cpu: c}
		}
	}
	if tr != nil {
		tr.on.Store(false)
	}
	if len(wins) == 0 { // a run shorter than one window is its own window
		wins = append(wins, window{ops: win.ops, wall: time.Since(win.start).Seconds(), cpu: cpuTime() - win.cpu})
	}
	wall := time.Since(start).Seconds()
	rt1 := readRuntime()
	yard1 := yardstick()
	fmt.Printf("# yardstick end %.3f ms\n", yard1)

	attempted := len(recs)
	failed, unexpected := 0, 0
	perClass := make([][]float64, len(w.classes))
	perClassTraced := make([][]float64, len(w.classes))
	att := make([]int, len(w.classes))
	fail := make([]int, len(w.classes))
	var all []float64
	for _, r := range recs {
		att[r.class]++
		if r.failed {
			fail[r.class]++
			failed++
			if !w.malformed[r.class] {
				unexpected++
			}
			continue
		}
		if w.malformed[r.class] {
			continue
		}
		if r.traced {
			perClassTraced[r.class] = append(perClassTraced[r.class], r.ms)
			continue
		}
		perClass[r.class] = append(perClass[r.class], r.ms)
		all = append(all, r.ms)
	}
	for c, cl := range w.classes {
		fmt.Printf("# class %-22s attempted %6d failed %6d p50 %.3f ms\n",
			cl, att[c], fail[c], median(perClass[c]))
	}
	fmt.Printf("# total attempted %d failed %d in %.3f s\n", attempted, failed, wall)
	// Per-operation figures count the operations that completed.
	completed := float64(max(attempted-failed, 1))

	p50 := classP50(perClass, w.malformed)
	res := map[string]metric{}
	if !traced {
		tail, stretches, chunk := chunkedTail(all, w.tail)
		fmt.Printf("# lat_tail_ms is the median over %d stretches of %d operations of each one's p%g (%d samples in all)\n",
			stretches, chunk, w.tail, len(all))
		var sp, mp []float64
		for c := range w.classes {
			if v, ok := g.speedup[c]; ok {
				sp = append(sp, v)
			}
			if v, ok := g.mape[c]; ok {
				mp = append(mp, v)
			}
		}
		var rates, cpus []float64
		for _, w := range wins {
			rates = append(rates, float64(w.ops)/w.wall)
			cpus = append(cpus, w.cpu*1e3/float64(max(w.ops, 1)))
		}
		fmt.Printf("# %d windows of >= %v: throughput %.4g..%.4g 1/s\n",
			len(wins), windowLen, quantile(rates, 0), quantile(rates, 1))
		vals := map[string]float64{
			"setup_s":           median(setups),
			"throughput_per_s":  median(rates),
			"lat_p50_ms":        p50,
			"lat_tail_ms":       tail,
			"cpu_ms_per_op":     median(cpus),
			"alloc_kb_per_op":   (rt1.allocBytes - rt0.allocBytes) / 1024 / completed,
			"rss_peak_mb":       peakRSSMiB(),
			"sim_speedup_gmean": gmean(sp),
			"quality_mape_pct":  gmean(mp),
		}
		for _, m := range endToEndMetrics {
			res[m.name] = metric{vals[m.name], m.unit}
		}
	} else {
		spans := tr.snapshot()
		lm := sys.layers(spans)
		for k, v := range microLayers(in.micro()) {
			lm[k] = v
		}
		lm["runtime.gc_cpu_pct"] = 100 * (rt1.gcCPU - rt0.gcCPU) / math.Max(rt1.totalCPU-rt0.totalCPU, 1e-9)
		lm["runtime.gc_per_kop"] = (rt1.gcCycles - rt0.gcCycles) * 1000 / completed
		lm["bench.verify_ms_per_op"] = float64(verifyNs.Load()) / 1e6 / completed
		lm["bench.trace_overhead_pct"] = 100 * (classP50(perClassTraced, w.malformed)/p50 - 1)
		for _, m := range perLayerMetrics {
			res[m.name] = metric{lm[m.name], m.unit}
		}
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := writePerfetto(path, spans, selfTimes(spans, "cluster.handler", "cluster.upstream")); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("# %d spans written to %s\n", len(spans), path)
	}
	printMetrics(res)
	if n := wrongOps.Load(); n > 0 {
		fmt.Printf("# %d outputs failed their checks\n", n)
	}
	// Only the malformed class may fail; a valid request that fails is as
	// wrong as a wrong answer.
	if unexpected > 0 {
		fmt.Printf("# %d valid operations failed\n", unexpected)
	}
	return emit(result{Correct: wrongOps.Load() == 0 && unexpected == 0,
		Attempted: attempted, Failed: failed, Metrics: res})
}

// classP50 is the geometric mean over the valid classes of each class's
// median latency.
func classP50(perClass [][]float64, malformed map[int]bool) float64 {
	var meds []float64
	for c, v := range perClass {
		if malformed[c] || len(v) == 0 {
			continue
		}
		meds = append(meds, median(v))
	}
	return gmean(meds)
}

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

func printMetrics(res map[string]metric) {
	names := make([]string, 0, len(res))
	for k := range res {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# %-34s %14.6f %s\n", k, res[k].Value, res[k].Unit)
	}
}

func emit(r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// Seeds. Inputs and the operation order derive from --seed; the sessions
// keep the daemons' default seed, as a deployment would.
const sessionSeed = 1

func inputSeed(seed int64) int64 { return seed*7919 + 17 }
func orderSeed(seed int64) int64 { return seed*104729 + 3 }

// yardstick times a fixed single-threaded integer loop, so that a run on a
// slowed host can be told from a slowed program.
func yardstick() float64 {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	ms := float64(time.Since(t).Nanoseconds()) / 1e6
	if x == 0 { // keeps the loop from being optimized away
		fmt.Println("#")
	}
	return ms
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's user+system CPU time in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

type runtimeSample struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value), val(s[3].Value)}
}
