// Package pq implements product quantization and the variants DRIM-ANN
// supports: plain PQ (Jégou et al.), OPQ (optimized PQ with a learned
// orthogonal rotation, Ge et al.) and a DPQ-style learned refinement (after
// Klein & Wolf's end-to-end supervised PQ; here an unsupervised SGD
// refinement of the codebooks, see DESIGN.md for the substitution note).
//
// The float32 path mirrors what Faiss does on the host. The integer path
// (IntCodebooks + LUTInt) mirrors the PIM deployment: codebook entries are
// rounded to int16 residual-domain values so that LUT construction can use
// the squaring lookup table (SQT) and stay bit-exact with multiplication.
package pq

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"drimann/internal/kmeans"
	"drimann/internal/sqt"
	"drimann/internal/vecmath"
)

// Config controls PQ training.
type Config struct {
	M  int // number of subspaces; must divide the dimension
	CB int // codebook entries per subspace (Faiss requires 256; we allow 16..65536)
	// Iters is the k-means iteration budget per subspace; default 20.
	Iters int
	// TrainSample caps the number of vectors used for training; 0 = all.
	TrainSample int
	Seed        int64
	// Workers bounds how many subspaces train at once; default
	// runtime.GOMAXPROCS(0). It does not change the codebooks.
	Workers int
}

// Quantizer is a trained product quantizer over D-dimensional float vectors.
type Quantizer struct {
	D, M, CB int
	DSub     int
	// Codebooks is flat M x CB x DSub: entry c of subspace m starts at
	// ((m*CB)+c)*DSub.
	Codebooks []float32
}

// Train learns a product quantizer from flat training data (N x dim rows).
func Train(data []float32, dim int, cfg Config) (*Quantizer, error) {
	if cfg.M <= 0 || dim%cfg.M != 0 {
		return nil, fmt.Errorf("pq: M=%d must divide dim=%d", cfg.M, dim)
	}
	if cfg.CB < 2 || cfg.CB > 65536 {
		return nil, fmt.Errorf("pq: CB=%d out of range [2,65536]", cfg.CB)
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 20
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	n := len(data) / dim
	if n*dim != len(data) {
		return nil, fmt.Errorf("pq: data length %d not a multiple of dim %d", len(data), dim)
	}
	if n < cfg.CB {
		return nil, fmt.Errorf("pq: %d training vectors < CB=%d", n, cfg.CB)
	}
	sample := data
	if cfg.TrainSample > 0 && cfg.TrainSample < n {
		rng := rand.New(rand.NewSource(cfg.Seed))
		sample = make([]float32, 0, cfg.TrainSample*dim)
		for i := 0; i < cfg.TrainSample; i++ {
			p := rng.Intn(n)
			sample = append(sample, data[p*dim:(p+1)*dim]...)
		}
		n = cfg.TrainSample
	}

	dsub := dim / cfg.M
	q := &Quantizer{D: dim, M: cfg.M, CB: cfg.CB, DSub: dsub,
		Codebooks: make([]float32, cfg.M*cfg.CB*dsub)}

	// The subspaces are independent k-means problems with their own seeds,
	// so they train concurrently, one per worker, and the codebooks do not
	// depend on Workers.
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, cfg.M)
	errs := make([]error, cfg.M)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := make([]float32, n*dsub)
			for m := w; m < cfg.M; m += workers {
				for i := 0; i < n; i++ {
					copy(sub[i*dsub:(i+1)*dsub], sample[i*dim+m*dsub:i*dim+(m+1)*dsub])
				}
				res, err := kmeans.Train(sub, kmeans.Config{
					K: cfg.CB, Dim: dsub, MaxIters: cfg.Iters,
					Seed: cfg.Seed + int64(m), Workers: 1,
				})
				if err != nil {
					errs[m] = fmt.Errorf("pq: subspace %d: %w", m, err)
					return
				}
				copy(q.Codebooks[m*cfg.CB*dsub:(m+1)*cfg.CB*dsub], res.Centroids)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return q, nil
}

// Entry returns codebook entry c of subspace m as a slice view.
func (q *Quantizer) Entry(m, c int) []float32 {
	off := (m*q.CB + c) * q.DSub
	return q.Codebooks[off : off+q.DSub]
}

// Encode writes the code of vec (length D) into code (length M).
func (q *Quantizer) Encode(vec []float32, code []uint16) {
	for m := 0; m < q.M; m++ {
		subvec := vec[m*q.DSub : (m+1)*q.DSub]
		cb := q.Codebooks[m*q.CB*q.DSub : (m+1)*q.CB*q.DSub]
		best, _ := vecmath.ArgMinL2F32(subvec, cb, q.DSub)
		code[m] = uint16(best)
	}
}

// EncodeAll encodes flat data (N x D) into a fresh flat code array (N x M).
func (q *Quantizer) EncodeAll(data []float32) []uint16 {
	n := len(data) / q.D
	codes := make([]uint16, n*q.M)
	for i := 0; i < n; i++ {
		q.Encode(data[i*q.D:(i+1)*q.D], codes[i*q.M:(i+1)*q.M])
	}
	return codes
}

// Decode reconstructs the vector of a code into out (length D).
func (q *Quantizer) Decode(code []uint16, out []float32) {
	for m := 0; m < q.M; m++ {
		copy(out[m*q.DSub:(m+1)*q.DSub], q.Entry(m, int(code[m])))
	}
}

// LUT fills lut (length M*CB) with squared L2 distances between each subvector
// of v and every codebook entry — the LC phase in float32.
func (q *Quantizer) LUT(v []float32, lut []float32) {
	for m := 0; m < q.M; m++ {
		subvec := v[m*q.DSub : (m+1)*q.DSub]
		for c := 0; c < q.CB; c++ {
			lut[m*q.CB+c] = vecmath.L2SquaredF32(subvec, q.Entry(m, c))
		}
	}
}

// ADC returns the asymmetric distance of a code against a prepared LUT.
func (q *Quantizer) ADC(lut []float32, code []uint16) float32 {
	return vecmath.ADCF32(lut, code, q.CB)
}

// ReconstructionMSE reports the mean squared reconstruction error over flat
// data, the quantity PQ training minimizes.
func (q *Quantizer) ReconstructionMSE(data []float32) float64 {
	n := len(data) / q.D
	if n == 0 {
		return 0
	}
	code := make([]uint16, q.M)
	rec := make([]float32, q.D)
	var total float64
	for i := 0; i < n; i++ {
		row := data[i*q.D : (i+1)*q.D]
		q.Encode(row, code)
		q.Decode(code, rec)
		total += float64(vecmath.L2SquaredF32(row, rec))
	}
	return total / float64(n)
}

// CodeBytes reports the packed bytes per vector on the PIM layout: one byte
// per sub-code when CB <= 256, two otherwise (the paper's Ba/Bp parameters).
func (q *Quantizer) CodeBytes() int {
	if q.CB <= 256 {
		return q.M
	}
	return 2 * q.M
}

// IntCodebooks is the residual-domain integer deployment of a quantizer for
// the PIM path. Entries are rounded to int16; combined with int16 residuals
// the LC subtraction stays within the SQT domain.
type IntCodebooks struct {
	M, CB, DSub int
	Data        []int16 // same layout as Quantizer.Codebooks
}

// QuantizeCodebooks rounds the float codebooks to the integer residual grid.
// Residuals of uint8 vectors lie in [-255, 255]; trained codebook entries are
// clamped to the same interval so |residual - entry| <= 510 = sqt.MaxDiff8.
func (q *Quantizer) QuantizeCodebooks() IntCodebooks {
	ic := IntCodebooks{M: q.M, CB: q.CB, DSub: q.DSub, Data: make([]int16, len(q.Codebooks))}
	for i, x := range q.Codebooks {
		v := math.Round(float64(x))
		if v > 255 {
			v = 255
		}
		if v < -255 {
			v = -255
		}
		ic.Data[i] = int16(v)
	}
	return ic
}

// Entry returns integer codebook entry c of subspace m.
func (ic *IntCodebooks) Entry(m, c int) []int16 {
	off := (m*ic.CB + c) * ic.DSub
	return ic.Data[off : off+ic.DSub]
}

// EncodeInt encodes an int16 residual against the integer codebooks with
// exact integer arithmetic (deterministic tie-break on the lower index).
func (ic *IntCodebooks) EncodeInt(residual []int16, code []uint16) {
	for m := 0; m < ic.M; m++ {
		subvec := residual[m*ic.DSub : (m+1)*ic.DSub]
		best, bestD := 0, uint32(math.MaxUint32)
		for c := 0; c < ic.CB; c++ {
			d := vecmath.L2SquaredI16(subvec, ic.Entry(m, c))
			if d < bestD {
				best, bestD = c, d
			}
		}
		code[m] = uint16(best)
	}
}

// LUTInt fills lut (length M*CB) with integer squared distances between the
// residual subvectors and every codebook entry, computed multiplier-less via
// the SQT — the PIM LC kernel. The result is bit-exact with LUTIntMul.
func (ic *IntCodebooks) LUTInt(residual []int16, lut []uint32, tab *sqt.SQT8) {
	for m := 0; m < ic.M; m++ {
		subvec := residual[m*ic.DSub : (m+1)*ic.DSub]
		for c := 0; c < ic.CB; c++ {
			entry := ic.Entry(m, c)
			var sum uint32
			for j, r := range subvec {
				sum += tab.Square(int32(r) - int32(entry[j]))
			}
			lut[m*ic.CB+c] = sum
		}
	}
}

// LUTIntMul is the multiplication-based twin of LUTInt, used as the ablation
// baseline for the paper's Figure 11(a) (and to verify SQT losslessness).
func (ic *IntCodebooks) LUTIntMul(residual []int16, lut []uint32) {
	for m := 0; m < ic.M; m++ {
		subvec := residual[m*ic.DSub : (m+1)*ic.DSub]
		for c := 0; c < ic.CB; c++ {
			lut[m*ic.CB+c] = vecmath.L2SquaredI16(subvec, ic.Entry(m, c))
		}
	}
}
