package main

// The benchmark's own FP64 implementations of the operations it checks, and
// the checks themselves. Nothing here calls into the program: references are
// computed from the inputs with the formulas written out below, and the
// tolerances follow from the INT8 quantization the Edge TPU applies
// (README.md, "Output checks").

import (
	"fmt"
	"math"
)

// mat is a dense row-major matrix, the benchmark's own container.
type mat struct {
	rows, cols int
	data       []float64
}

func newMat(r, c int) mat { return mat{r, c, make([]float64, r*c)} }

func (m mat) at(i, j int) float64 { return m.data[i*m.cols+j] }

// atClamp reads with replicate borders (the image kernels' convention).
func (m mat) atClamp(i, j int) float64 {
	if i < 0 {
		i = 0
	}
	if i >= m.rows {
		i = m.rows - 1
	}
	if j < 0 {
		j = 0
	}
	if j >= m.cols {
		j = m.cols - 1
	}
	return m.data[i*m.cols+j]
}

func maxAbs(xs []float64) float64 {
	var m float64
	for _, v := range xs {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// qerr is the largest error one INT8 affine quantization of a tensor with
// these values can add to an element: the range, widened to include zero,
// over 255 levels, times 1.5 (half a step of rounding plus one step of
// clamping at the range ends). A partition's range lies inside the whole
// tensor's, so the whole-tensor figure bounds every partition's.
func qerr(xs []float64) float64 {
	lo, hi := 0.0, 0.0
	for _, v := range xs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return 1.5 * (hi - lo) / 255
}

// qerrSpan is qerr for a tensor whose values lie within [lo,hi].
func qerrSpan(lo, hi float64) float64 {
	return 1.5 * (math.Max(hi, 0) - math.Min(lo, 0)) / 255
}

func span0(xs []float64, widen float64) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range xs {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo - widen, hi + widen
}

// refOut is an expected output: exact FP64 values and a per-element bound
// on how far a correct output may lie from them.
type refOut struct {
	want mat
	tol  []float64
}

// outTol adds the final output requantization (over the exact output's
// range widened by the largest input-induced error) and a tiny floating-
// point slack to per-element input-induced errors.
func outTol(want []float64, inErr []float64) []float64 {
	var maxIn float64
	for _, e := range inErr {
		maxIn = math.Max(maxIn, e)
	}
	lo, hi := span0(want, maxIn)
	q := qerrSpan(lo, hi)
	slack := 1e-9 * (maxAbs(want) + 1)
	tol := make([]float64, len(want))
	for i := range tol {
		tol[i] = inErr[i] + q + slack
	}
	return tol
}

func uniformErr(n int, e float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = e
	}
	return out
}

// refAdd: one quantized input error per operand, gain 1 each.
func refAdd(a, b mat) refOut {
	w := newMat(a.rows, a.cols)
	for i := range w.data {
		w.data[i] = a.data[i] + b.data[i]
	}
	return refOut{w, outTol(w.data, uniformErr(len(w.data), qerr(a.data)+qerr(b.data)))}
}

// refMultiply: |ab - a'b'| <= |b| ea + |a| eb + ea eb.
func refMultiply(a, b mat) refOut {
	w := newMat(a.rows, a.cols)
	ea, eb := qerr(a.data), qerr(b.data)
	in := make([]float64, len(w.data))
	for i := range w.data {
		w.data[i] = a.data[i] * b.data[i]
		in[i] = math.Abs(b.data[i])*ea + math.Abs(a.data[i])*eb + ea*eb
	}
	return refOut{w, outTol(w.data, in)}
}

// refRelu: relu is 1-Lipschitz.
func refRelu(x mat) refOut {
	w := newMat(x.rows, x.cols)
	for i, v := range x.data {
		w.data[i] = math.Max(v, 0)
	}
	return refOut{w, outTol(w.data, uniformErr(len(w.data), qerr(x.data)))}
}

// refReduceSum: every partition's partial sum sees at most n_p input
// errors and one requantization of the partial (a one-element tensor, so
// its range is the partial itself); summed over partitions that is at most
// n*qerr(x) + 1.5*sum|x|/255.
func refReduceSum(x mat) refOut {
	var s, sAbs float64
	for _, v := range x.data {
		s += v
		sAbs += math.Abs(v)
	}
	e := float64(len(x.data))*qerr(x.data) + 1.5*sAbs/255*1.01
	return refOut{mat{1, 1, []float64{s}}, []float64{e + 1e-9*(sAbs+1)}}
}

// refSobel: each gradient has absolute weight sum 8, and the magnitude is
// 1-Lipschitz in (gx, gy), so the gain is 8*sqrt(2).
func refSobel(x mat) refOut {
	w := newMat(x.rows, x.cols)
	for i := 0; i < x.rows; i++ {
		for j := 0; j < x.cols; j++ {
			gx := -x.atClamp(i-1, j-1) + x.atClamp(i-1, j+1) - 2*x.atClamp(i, j-1) +
				2*x.atClamp(i, j+1) - x.atClamp(i+1, j-1) + x.atClamp(i+1, j+1)
			gy := -x.atClamp(i-1, j-1) - 2*x.atClamp(i-1, j) - x.atClamp(i-1, j+1) +
				x.atClamp(i+1, j-1) + 2*x.atClamp(i+1, j) + x.atClamp(i+1, j+1)
			w.data[i*x.cols+j] = math.Sqrt(gx*gx + gy*gy)
		}
	}
	return refOut{w, outTol(w.data, uniformErr(len(w.data), 8*math.Sqrt2*qerr(x.data)))}
}

// refLaplacian: 4-neighbour Laplacian, absolute weight sum 8.
func refLaplacian(x mat) refOut {
	w := newMat(x.rows, x.cols)
	for i := 0; i < x.rows; i++ {
		for j := 0; j < x.cols; j++ {
			w.data[i*x.cols+j] = x.atClamp(i-1, j) + x.atClamp(i+1, j) +
				x.atClamp(i, j-1) + x.atClamp(i, j+1) - 4*x.at(i, j)
		}
	}
	return refOut{w, outTol(w.data, uniformErr(len(w.data), 8*qerr(x.data)))}
}

// refMeanFilter: 3x3 box mean, absolute weight sum 1.
func refMeanFilter(x mat) refOut {
	w := newMat(x.rows, x.cols)
	for i := 0; i < x.rows; i++ {
		for j := 0; j < x.cols; j++ {
			var s float64
			for di := -1; di <= 1; di++ {
				for dj := -1; dj <= 1; dj++ {
					s += x.atClamp(i+di, j+dj)
				}
			}
			w.data[i*x.cols+j] = s / 9
		}
	}
	return refOut{w, outTol(w.data, uniformErr(len(w.data), qerr(x.data)))}
}

// refGEMM: |dy_ij| <= sum_k |a_ik| eb + |b_kj| ea + ea eb (inputs quantize
// once, accumulation is wide, the output requantizes once).
func refGEMM(a, b mat) refOut {
	w := newMat(a.rows, b.cols)
	ea, eb := qerr(a.data), qerr(b.data)
	rowAbs := make([]float64, a.rows)
	colAbs := make([]float64, b.cols)
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			aik := a.at(i, k)
			rowAbs[i] += math.Abs(aik)
			for j := 0; j < b.cols; j++ {
				w.data[i*b.cols+j] += aik * b.at(k, j)
			}
		}
	}
	for k := 0; k < b.rows; k++ {
		for j := 0; j < b.cols; j++ {
			colAbs[j] += math.Abs(b.at(k, j))
		}
	}
	in := make([]float64, len(w.data))
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			in[i*b.cols+j] = rowAbs[i]*eb + colAbs[j]*ea + float64(a.cols)*ea*eb
		}
	}
	return refOut{w, outTol(w.data, in)}
}

// Hotspot constants: the kernel's defaults (rx = ry = 1, rz = 4, ambient
// 80, dt 0.1, one step).
const (
	hsRz, hsAmb, hsDt = 4.0, 80.0, 0.1
	hsTGain           = 4 + 4 + 1/hsRz // |weights on temperature| in delta
)

// refHotspot: delta = P + (N+S-2T) + (W+E-2T) + (amb-T)/rz is requantized,
// then next = T + dt*delta is requantized.
func refHotspot(t, p mat) refOut {
	delta := newMat(t.rows, t.cols)
	for i := 0; i < t.rows; i++ {
		for j := 0; j < t.cols; j++ {
			c := t.at(i, j)
			delta.data[i*t.cols+j] = p.at(i, j) +
				(t.atClamp(i-1, j) + t.atClamp(i+1, j) - 2*c) +
				(t.atClamp(i, j-1) + t.atClamp(i, j+1) - 2*c) +
				(hsAmb-c)/hsRz
		}
	}
	w := newMat(t.rows, t.cols)
	for i := range w.data {
		w.data[i] = t.data[i] + hsDt*delta.data[i]
	}
	eT, eP := qerr(t.data), qerr(p.data)
	eDeltaIn := eP + hsTGain*eT
	lo, hi := span0(delta.data, eDeltaIn)
	eDelta := eDeltaIn + qerrSpan(lo, hi)
	return refOut{w, outTol(w.data, uniformErr(len(w.data), eT+hsDt*eDelta))}
}

// cnd is the Abramowitz-Stegun normal CDF the Black-Scholes kernel uses.
func cnd(d float64) float64 {
	const (
		a1, a2, a3, a4, a5 = 0.31938153, -0.356563782, 1.781477937, -1.821255978, 1.330274429
	)
	k := 1 / (1 + 0.2316419*math.Abs(d))
	c := (1 / math.Sqrt(2*math.Pi)) * math.Exp(-0.5*d*d) * k * (a1 + k*(a2+k*(a3+k*(a4+k*a5))))
	if d > 0 {
		return 1 - c
	}
	return c
}

// cndLip bounds the slope of cnd (the normal density peaks at 0.3989).
const cndLip = 0.42

// refBlackScholes prices European calls. Each of the kernel's four layers
// (d1, d2, the two CNDs, the price) requantizes; the per-element bound
// propagates the input and layer errors through each layer's slope.
func refBlackScholes(s, k mat, r, sigma, t float64) refOut {
	n := len(s.data)
	v := sigma * math.Sqrt(t)
	d1 := make([]float64, n)
	d2 := make([]float64, n)
	n1 := make([]float64, n)
	n2 := make([]float64, n)
	w := newMat(s.rows, s.cols)
	disc := math.Exp(-r * t)
	for i := range d1 {
		d1[i] = (math.Log(s.data[i]/k.data[i]) + (r+0.5*sigma*sigma)*t) / v
		d2[i] = d1[i] - v
		n1[i] = cnd(d1[i])
		n2[i] = cnd(d2[i])
		w.data[i] = s.data[i]*n1[i] - k.data[i]*disc*n2[i]
	}
	eS, eK := qerr(s.data), qerr(k.data)
	in := make([]float64, n)
	ed1In := make([]float64, n)
	var maxD1 float64
	for i := range in {
		si, ki := s.data[i], k.data[i]
		if si-eS <= 0 || ki-eK <= 0 {
			ed1In[i] = math.Inf(1)
			continue
		}
		ed1In[i] = (eS/(si-eS) + eK/(ki-eK)) / v
		maxD1 = math.Max(maxD1, ed1In[i])
	}
	lo, hi := span0(d1, maxD1)
	qd1 := qerrSpan(lo, hi)
	lo, hi = span0(d2, maxD1+qd1)
	qd2 := qerrSpan(lo, hi)
	qn := qerrSpan(0, 1) // both CND layers lie in [0,1]
	for i := range in {
		si, ki := s.data[i], k.data[i]
		// A call is worth between 0 and the spot, whatever the errors.
		cap := si + eS + ki*disc
		if math.IsInf(ed1In[i], 1) {
			in[i] = cap
			continue
		}
		ed1 := ed1In[i] + qd1
		ed2 := ed1 + qd2
		en1 := cndLip*ed1 + qn
		en2 := cndLip*ed2 + qn
		e := eS*(n1[i]+en1) + (si+eS)*en1 + disc*(eK*(n2[i]+en2)+(ki+eK)*en2)
		in[i] = math.Min(e*1.01, cap)
	}
	return refOut{w, outTol(w.data, in)}
}

// refHistogram bins x into 256 bins over [lo,hi) with the ends clamped. A
// quantized input can only change the bin of an element lying within qerr
// of a bin edge, so the L1 distance of a correct histogram from the exact
// one is at most twice the number of such elements (returned as slack).
func refHistogram(x mat, lo, hi float64) (bins []float64, slack float64) {
	bins = make([]float64, 256)
	scale := 256 / (hi - lo)
	e := qerr(x.data)
	for _, v := range x.data {
		b := int((v - lo) * scale)
		if b < 0 {
			b = 0
		}
		if b > 255 {
			b = 255
		}
		bins[b]++
		pos := (v - lo) * scale
		frac := pos - math.Floor(pos)
		if d := math.Min(frac, 1-frac) / scale; d <= e*1.01 {
			slack += 2
		}
	}
	return bins, slack
}

// checkWithin reports the first element of got outside ref's bound.
func checkWithin(got []float64, rows, cols int, ref refOut) error {
	if rows != ref.want.rows || cols != ref.want.cols || len(got) != len(ref.want.data) {
		return fmt.Errorf("output is %dx%d (%d values), want %dx%d",
			rows, cols, len(got), ref.want.rows, ref.want.cols)
	}
	for i, g := range got {
		w := ref.want.data[i]
		if !(math.Abs(g-w) <= ref.tol[i]) {
			return fmt.Errorf("element %d = %.9g, want %.9g within %.3g", i, g, w, ref.tol[i])
		}
	}
	return nil
}

// checkHistogram checks a histogram output: the bins count every element
// exactly once, and lie within the quantization slack of the exact bins.
func checkHistogram(got []float64, n int, want []float64, slack float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("histogram has %d bins, want %d", len(got), len(want))
	}
	var sum, l1 float64
	for i, g := range got {
		if g < 0 || g != math.Trunc(g) {
			return fmt.Errorf("bin %d holds %g, not a count", i, g)
		}
		sum += g
		l1 += math.Abs(g - want[i])
	}
	if sum != float64(n) {
		return fmt.Errorf("bins sum to %g, want %d elements", sum, n)
	}
	if l1 > slack {
		return fmt.Errorf("bins differ from the exact histogram by %g, allowed %g", l1, slack)
	}
	return nil
}

// normCheck is Parseval's identity prepared for one input: per row (FFT) or
// per 8x8 block (DCT) of the output, the norm the transform's output must
// have and how far a correct output's norm may lie from it.
type normCheck struct {
	what       string // "row" or "block"
	rows, cols int
	bh, bw     int // the shape each norm is taken over
	want, tol  []float64
}

func (c normCheck) check(out []float64) error {
	if len(out) != c.rows*c.cols || c.rows%c.bh != 0 || c.cols%c.bw != 0 {
		return fmt.Errorf("output has %d values for a %dx%d input in %dx%d %ss",
			len(out), c.rows, c.cols, c.bh, c.bw, c.what)
	}
	k := 0
	for bi := 0; bi < c.rows; bi += c.bh {
		for bj := 0; bj < c.cols; bj += c.bw {
			var e float64
			for i := bi; i < bi+c.bh; i++ {
				for _, v := range out[i*c.cols+bj : i*c.cols+bj+c.bw] {
					e += v * v
				}
			}
			if n := math.Sqrt(e); !(math.Abs(n-c.want[k]) <= c.tol[k]) {
				return fmt.Errorf("%s (%d,%d): output norm %.9g, Parseval gives %.9g within %.3g",
					c.what, bi, bj, n, c.want[k], c.tol[k])
			}
			k++
		}
	}
	return nil
}

// fpRel bounds the relative error FP16 rounding at the input cast and at
// a kernel's two stage boundaries adds to an orthogonal transform's norm
// (3 × 2⁻¹¹, rounded up); FP32 and FP64 lie inside it.
const fpRel = 2e-3

// parsevalFFT prepares the check of a row-wise magnitude spectrum: the
// unnormalized DFT keeps norms up to √N, so each output row's norm is
// √N ‖x_row‖. exact asks for the FP64 path's 1e-9; otherwise tol is the
// worst case of the TPU's NPU-mode FFT (README.md, "Output checks"): the
// input quantized (at most q(x) an element, √N·√N·q(x) on the row's
// spectrum), the real and imaginary spectra requantized over a range within
// ±M, M the largest row L1 norm of the quantized input (√(2N)·q(±M)), and
// the magnitudes requantized over [0, M+√2·q(±M)] (√N·q). GPU rounding
// adds fpRel.
func parsevalFFT(x mat, exact bool) normCheck {
	c := normCheck{what: "row", rows: x.rows, cols: x.cols, bh: 1, bw: x.cols}
	n := float64(x.cols)
	eIn := qerr(x.data)
	var m float64
	for i := 0; i < x.rows; i++ {
		var e, l1 float64
		for j := 0; j < x.cols; j++ {
			e += x.at(i, j) * x.at(i, j)
			l1 += math.Abs(x.at(i, j))
		}
		c.want = append(c.want, math.Sqrt(n*e))
		m = math.Max(m, l1+n*eIn)
	}
	eS := qerrSpan(-m, m)
	eO := qerrSpan(0, m+math.Sqrt2*eS)
	quant := n*eIn + math.Sqrt(2*n)*eS + math.Sqrt(n)*eO
	for _, w := range c.want {
		if exact {
			c.tol = append(c.tol, 1e-9*(w+1))
		} else {
			c.tol = append(c.tol, quant+fpRel*(w+1))
		}
	}
	return c
}

// parsevalDCT prepares the check of an orthonormal 8x8 block DCT: each
// output block's norm is its input block's. exact asks for 1e-9; otherwise
// tol is the worst case of the TPU's matrix-mode DCT: the input quantized
// once (8·q(x) on a block), and each coefficient requantized per channel
// over a range within ±B, B the largest block norm of the quantized input,
// which bounds every coefficient (8·q(±B)). GPU rounding adds fpRel.
func parsevalDCT(x mat, exact bool) normCheck {
	c := normCheck{what: "block", rows: x.rows, cols: x.cols, bh: 8, bw: 8}
	eIn := qerr(x.data)
	var b float64
	for bi := 0; bi+8 <= x.rows; bi += 8 {
		for bj := 0; bj+8 <= x.cols; bj += 8 {
			var e float64
			for i := bi; i < bi+8; i++ {
				for j := bj; j < bj+8; j++ {
					e += x.at(i, j) * x.at(i, j)
				}
			}
			c.want = append(c.want, math.Sqrt(e))
			b = math.Max(b, math.Sqrt(e)+8*eIn)
		}
	}
	quant := 8*eIn + 8*qerrSpan(-b, b)
	for _, w := range c.want {
		if exact {
			c.tol = append(c.tol, 1e-9*(w+1))
		} else {
			c.tol = append(c.tol, quant+fpRel*(w+1))
		}
	}
	return c
}

// mixtureBound is, per element, how far from exact the farthest of the
// single-device runs of the same partitioning lies.
func mixtureBound(exact []float64, single ...[]float64) []float64 {
	out := make([]float64, len(exact))
	for _, s := range single {
		for i, v := range s {
			out[i] = math.Max(out[i], math.Abs(v-exact[i]))
		}
	}
	return out
}

// checkMixture checks an output assembled from partitions that each ran on
// one device: every element lies no farther from the exact output than the
// farthest single-device run of the same partitioning does (bound, from
// mixtureBound).
func checkMixture(got, exact, bound []float64) error {
	if len(got) != len(exact) {
		return fmt.Errorf("output has %d values, want %d", len(got), len(exact))
	}
	slack := 1e-9 * (maxAbs(exact) + 1)
	for i, g := range got {
		if !(math.Abs(g-exact[i]) <= bound[i]+slack) {
			return fmt.Errorf("element %d = %.9g is %.3g from exact %.9g; single devices are at most %.3g away",
				i, g, math.Abs(g-exact[i]), exact[i], bound[i])
		}
	}
	return nil
}

// checkSpeedupBound checks a simulated speed-up against Fig. 2's "SHMT
// theoretical" bound: the GPU and the Edge TPU computing at once with all
// staging hidden gain at most 2 + (GPU time / TPU time) over the GPU alone.
func checkSpeedupBound(name string, speedup, tpuSpeedup float64) error {
	if bound := 2 + tpuSpeedup; !(speedup > 0 && speedup <= bound) {
		return fmt.Errorf("%s: simulated speed-up %.4f outside (0, %.4f]", name, speedup, bound)
	}
	return nil
}

// mape is the mean absolute percentage error with the program's floor on
// the denominator, so the figure compares with Fig. 7.
func mape(ref, got []float64) float64 {
	const eps = 1e-6
	if len(ref) == 0 || len(ref) != len(got) {
		return math.Inf(1)
	}
	var s float64
	for i := range ref {
		s += math.Abs(got[i]-ref[i]) / math.Max(math.Abs(ref[i]), eps)
	}
	return s / float64(len(ref))
}
