package main

import (
	"math"
	"math/rand"
	"testing"

	"shmt/internal/tensor"
)

func randMat(rng *rand.Rand, r, c int, lo, hi float64) mat {
	m := newMat(r, c)
	for i := range m.data {
		m.data[i] = lo + (hi-lo)*rng.Float64()
	}
	return m
}

// quantize mimics one INT8 affine quantization of a whole tensor: the
// largest perturbation a correct device output may carry per layer.
func quantize(xs []float64) []float64 {
	lo, hi := 0.0, 0.0
	for _, v := range xs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	step := (hi - lo) / 255
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = lo + math.Round((v-lo)/step)*step
	}
	return out
}

// TestBoundsAcceptCorrectRejectPerturbed feeds every per-element check its
// exact answer, a quantized answer (which it must accept) and an answer with
// one element moved by a few times its bound (which it must reject).
func TestBoundsAcceptCorrectRejectPerturbed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 32, 32, -1, 1)
	b := randMat(rng, 32, 32, -1, 1)
	pos := randMat(rng, 32, 32, 0.5, 1.5)
	temp := randMat(rng, 32, 32, 70, 90)
	power := randMat(rng, 32, 32, 0, 1)
	spot := randMat(rng, 32, 32, 80, 120)
	strike := randMat(rng, 32, 32, 100, 150)
	cases := map[string]refOut{
		"add":          refAdd(a, b),
		"multiply":     refMultiply(a, b),
		"relu":         refRelu(a),
		"reduce_sum":   refReduceSum(pos),
		"Sobel":        refSobel(a),
		"Laplacian":    refLaplacian(a),
		"MF":           refMeanFilter(a),
		"GEMM":         refGEMM(a, b),
		"Hotspot":      refHotspot(temp, power),
		"Blackscholes": refBlackScholes(spot, strike, 0.02, 0.3, 1),
	}
	for name, ref := range cases {
		w := ref.want
		if err := checkWithin(w.data, w.rows, w.cols, ref); err != nil {
			t.Errorf("%s: exact output rejected: %v", name, err)
		}
		if err := checkWithin(quantize(w.data), w.rows, w.cols, ref); err != nil {
			t.Errorf("%s: quantized output rejected: %v", name, err)
		}
		bad := append([]float64(nil), w.data...)
		i := len(bad) / 2
		bad[i] += 3*ref.tol[i] + 1e-6
		if err := checkWithin(bad, w.rows, w.cols, ref); err == nil {
			t.Errorf("%s: perturbed output accepted", name)
		}
		if err := checkWithin(w.data[1:], w.rows, w.cols-1, ref); err == nil {
			t.Errorf("%s: wrong shape accepted", name)
		}
	}
}

// TestBoundsAreTight keeps the tolerances meaningful: on these inputs no
// bound may exceed a tenth of the output's range.
func TestBoundsAreTight(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 32, 32, -1, 1)
	b := randMat(rng, 32, 32, -1, 1)
	for name, ref := range map[string]refOut{
		"add": refAdd(a, b), "relu": refRelu(a), "MF": refMeanFilter(a), "GEMM": refGEMM(a, b),
	} {
		lo, hi := span0(ref.want.data, 0)
		for i, tol := range ref.tol {
			if tol > (hi-lo)/10 {
				t.Fatalf("%s: bound %g at %d is loose against range %g", name, tol, i, hi-lo)
			}
		}
	}
}

func TestHistogramCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randMat(rng, 64, 64, -5, 6)
	bins, slack := refHistogram(x, -5, 6)
	if err := checkHistogram(bins, len(x.data), bins, slack); err != nil {
		t.Fatalf("exact histogram rejected: %v", err)
	}
	lost := append([]float64(nil), bins...)
	lost[10]--
	if err := checkHistogram(lost, len(x.data), bins, slack); err == nil {
		t.Error("histogram missing an element accepted")
	}
	moved := append([]float64(nil), bins...)
	moved[10] -= slack + 1
	moved[200] += slack + 1
	if err := checkHistogram(moved, len(x.data), bins, slack); err == nil {
		t.Error("histogram with moved counts accepted")
	}
}

// dftMag is the row-wise DFT magnitude spectrum by definition; with
// quantized set it follows the Edge TPU's NPU-mode FFT: input, real and
// imaginary spectra and magnitudes each requantized.
func dftMag(x mat, quantized bool) []float64 {
	in := x.data
	if quantized {
		in = quantize(in)
	}
	re := make([]float64, len(in))
	im := make([]float64, len(in))
	for i := 0; i < x.rows; i++ {
		for k := 0; k < x.cols; k++ {
			for n := 0; n < x.cols; n++ {
				ang := -2 * math.Pi * float64(k*n) / float64(x.cols)
				re[i*x.cols+k] += in[i*x.cols+n] * math.Cos(ang)
				im[i*x.cols+k] += in[i*x.cols+n] * math.Sin(ang)
			}
		}
	}
	if quantized {
		re, im = quantize(re), quantize(im)
	}
	mag := make([]float64, len(in))
	for i := range mag {
		mag[i] = math.Hypot(re[i], im[i])
	}
	if quantized {
		mag = quantize(mag)
	}
	return mag
}

// dct8 is the orthonormal 8x8 block DCT-II by definition; with quantized
// set it follows the Edge TPU's matrix-mode DCT: input quantized once, each
// coefficient position requantized as its own channel.
func dct8(x mat, quantized bool) []float64 {
	in := x.data
	if quantized {
		in = quantize(in)
	}
	alpha := func(u int) float64 {
		if u == 0 {
			return math.Sqrt(1.0 / 8)
		}
		return math.Sqrt(2.0 / 8)
	}
	coef := make([]float64, len(in))
	for bi := 0; bi < x.rows; bi += 8 {
		for bj := 0; bj < x.cols; bj += 8 {
			for u := 0; u < 8; u++ {
				for v := 0; v < 8; v++ {
					var s float64
					for i := 0; i < 8; i++ {
						for j := 0; j < 8; j++ {
							s += in[(bi+i)*x.cols+bj+j] * math.Cos(float64(2*i+1)*float64(u)*math.Pi/16) *
								math.Cos(float64(2*j+1)*float64(v)*math.Pi/16)
						}
					}
					coef[(bi+u)*x.cols+bj+v] = alpha(u) * alpha(v) * s
				}
			}
		}
	}
	if quantized {
		for ch := 0; ch < 64; ch++ {
			var idx []int
			var vals []float64
			for i := ch / 8; i < x.rows; i += 8 {
				for j := ch % 8; j < x.cols; j += 8 {
					idx = append(idx, i*x.cols+j)
					vals = append(vals, coef[i*x.cols+j])
				}
			}
			for n, v := range quantize(vals) {
				coef[idx[n]] = v
			}
		}
	}
	return coef
}

// scaled returns xs times f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = v * f
	}
	return out
}

// beyond is a scale factor just past what c tolerates on every row or
// block, so a uniformly scaled output must fail somewhere.
func beyond(c normCheck) float64 {
	f := math.Inf(1)
	for k, w := range c.want {
		f = math.Min(f, c.tol[k]/w)
	}
	return 1 + 1.5*f
}

// TestParseval: exact transforms pass both the exact and the INT8 check,
// quantized ones the INT8 check, and scaled or perturbed ones neither.
func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randMat(rng, 8, 64, 0, 1)
	img := randMat(rng, 16, 32, 0, 4)
	for _, tc := range []struct {
		name         string
		exact, quant normCheck
		out, outQ    []float64
	}{
		{"FFT", parsevalFFT(x, true), parsevalFFT(x, false), dftMag(x, false), dftMag(x, true)},
		{"DCT8x8", parsevalDCT(img, true), parsevalDCT(img, false), dct8(img, false), dct8(img, true)},
	} {
		if err := tc.exact.check(tc.out); err != nil {
			t.Errorf("%s: exact output rejected: %v", tc.name, err)
		}
		if err := tc.quant.check(tc.outQ); err != nil {
			t.Errorf("%s: quantized output rejected: %v", tc.name, err)
		}
		if err := tc.exact.check(tc.outQ); err == nil {
			t.Errorf("%s: quantized output passed the exact check", tc.name)
		}
		f := beyond(tc.quant)
		if err := tc.quant.check(scaled(tc.outQ, f)); err == nil {
			t.Errorf("%s: output scaled by %.3f accepted", tc.name, f)
		}
		bad := append([]float64(nil), tc.outQ...)
		bad[3] += tc.quant.want[0]
		if err := tc.quant.check(bad); err == nil {
			t.Errorf("%s: output with one element moved accepted", tc.name)
		}
		if err := tc.quant.check(tc.outQ[1:]); err == nil {
			t.Errorf("%s: wrong shape accepted", tc.name)
		}
		t.Logf("%s: the INT8 check rejects output scaled by %.3f", tc.name, f)
	}
}

// TestOfflineCheckCatchesScaledTransform: a device fault that scales every
// FFT or DCT8x8 output also scales the single-device runs the mixture
// bound is made from, so the mixture check alone accepts it; the Parseval
// check on the timed output does not.
func TestOfflineCheckCatchesScaledTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randMat(rng, 8, 64, 0, 1)
	img := randMat(rng, 16, 32, 0, 4)
	for _, tc := range []struct {
		name  string
		in    mat
		norms normCheck
		exact []float64
		dev   []float64
	}{
		{"FFT", x, parsevalFFT(x, false), dftMag(x, false), dftMag(x, true)},
		{"DCT8x8", img, parsevalDCT(img, false), dct8(img, false), dct8(img, true)},
	} {
		f := beyond(tc.norms)
		faulty := scaled(tc.dev, f)
		c := &offlineCase{exact: tc.exact, mix: mixtureBound(tc.exact, tc.dev, faulty), norms: &tc.norms}
		out := tensor.NewMatrix(tc.in.rows, tc.in.cols)
		copy(out.Data, faulty)
		if err := checkMixture(out.Data, c.exact, c.mix); err != nil {
			t.Fatalf("%s: the mixture check should accept what the faulty device ran: %v", tc.name, err)
		}
		if err := c.check(out); err == nil {
			t.Errorf("%s: output scaled by %.3f accepted", tc.name, f)
		}
		if err := c.norms.check(faulty); err == nil {
			t.Errorf("%s: faulty single-device run accepted as a mixture bound", tc.name)
		}
		copy(out.Data, tc.dev)
		if err := c.check(out); err != nil {
			t.Errorf("%s: correct quantized output rejected: %v", tc.name, err)
		}
	}
}

func TestMixture(t *testing.T) {
	exact := []float64{1, 2, 3, 4}
	gpu := []float64{1, 2.001, 3, 4}
	tpu := []float64{1.1, 2, 2.9, 4.2}
	bound := mixtureBound(exact, gpu, tpu)
	if err := checkMixture([]float64{1.1, 2.001, 3, 4.2}, exact, bound); err != nil {
		t.Fatalf("element-wise mixture rejected: %v", err)
	}
	if err := checkMixture([]float64{1, 2, 3.5, 4}, exact, bound); err == nil {
		t.Error("output farther than any device accepted")
	}
}

func TestSpeedupBound(t *testing.T) {
	if err := checkSpeedupBound("x", 2.5, 0.9); err != nil {
		t.Fatalf("speed-up within 2 + 0.9 rejected: %v", err)
	}
	if err := checkSpeedupBound("x", 3.0, 0.9); err == nil {
		t.Error("speed-up above the SHMT theoretical bound accepted")
	}
	if err := checkSpeedupBound("x", math.NaN(), 0.9); err == nil {
		t.Error("NaN speed-up accepted")
	}
}

func TestCovered(t *testing.T) {
	ivs := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {40, 50}}
	if got := covered(0, 45, ivs); got != 15+10+5 {
		t.Errorf("covered = %d, want 30", got)
	}
	spans := []span{
		{name: "cluster.handler", traceID: "a", start: 0, end: 100},
		{name: "cluster.upstream", traceID: "a", start: 10, end: 60},
		{name: "cluster.upstream", traceID: "a", start: 40, end: 80},
		{name: "cluster.upstream", traceID: "b", start: 0, end: 100},
	}
	if self := selfTimes(spans, "cluster.handler", "cluster.upstream")[0]; self != 30 {
		t.Errorf("self time = %d, want 30", self)
	}
}

func TestChunkedTail(t *testing.T) {
	lats := make([]float64, 450)
	for i := range lats {
		lats[i] = float64(i % 200)
	}
	tail, n, chunk := chunkedTail(lats, 95)
	if n != 2 || chunk != 200 || math.Abs(tail-189.05) > 1e-9 {
		t.Errorf("chunkedTail = %g over %d stretches of %d, want 189.05 over 2 of 200", tail, n, chunk)
	}
	if tail, n, chunk = chunkedTail(lats[:50], 95); n != 1 || chunk != 50 || math.Abs(tail-46.55) > 1e-9 {
		t.Errorf("short run: chunkedTail = %g over %d stretches of %d, want 46.55 over 1 of 50", tail, n, chunk)
	}
}
