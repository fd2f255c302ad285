package vecmath

import (
	"math/rand"
	"testing"
)

func benchVectors(n int) ([]uint8, []uint8, []float32, []float32) {
	rng := rand.New(rand.NewSource(1))
	a8 := make([]uint8, n)
	b8 := make([]uint8, n)
	af := make([]float32, n)
	bf := make([]float32, n)
	for i := 0; i < n; i++ {
		a8[i] = uint8(rng.Intn(256))
		b8[i] = uint8(rng.Intn(256))
		af[i] = rng.Float32()
		bf[i] = rng.Float32()
	}
	return a8, b8, af, bf
}

func BenchmarkL2SquaredU8Dim128(b *testing.B) {
	a8, b8, _, _ := benchVectors(128)
	b.SetBytes(128)
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += L2SquaredU8(a8, b8)
	}
	_ = sink
}

func BenchmarkL2SquaredF32Dim128(b *testing.B) {
	_, _, af, bf := benchVectors(128)
	b.SetBytes(128 * 4)
	var sink float32
	for i := 0; i < b.N; i++ {
		sink += L2SquaredF32(af, bf)
	}
	_ = sink
}

func BenchmarkADCU32M16(b *testing.B) {
	lut := make([]uint32, 16*256)
	for i := range lut {
		lut[i] = uint32(i)
	}
	code := make([]uint16, 16)
	for i := range code {
		code[i] = uint16(i * 13 % 256)
	}
	for i := 0; i < b.N; i++ {
		_ = ADCU32(lut, code, 256)
	}
}

// adcFixture builds an M-row LUT plus n packed code rows shaped like the
// engine's DC kernel input (one cluster slice).
func adcFixture(m, cb, n int) (lut []uint32, codes []uint16) {
	rng := rand.New(rand.NewSource(3))
	lut = make([]uint32, m*cb)
	for i := range lut {
		lut[i] = rng.Uint32()
	}
	codes = make([]uint16, n*m)
	for i := range codes {
		codes[i] = uint16(rng.Intn(cb))
	}
	return lut, codes
}

// The ISSUE-2 ADC micro-benchmarks: generic per-point loop vs the unrolled
// M=16 kernel vs the batch dispatcher vs the decomposed residual batch. The
// engine's DC phase runs one of the batch variants per cluster slice.

func BenchmarkADCU32GenericLoop(b *testing.B) {
	const m, cb, n = 16, 256, 1024
	lut, codes := adcFixture(m, cb, n)
	b.SetBytes(int64(n * m * 2))
	var sink uint32
	for i := 0; i < b.N; i++ {
		for p := 0; p < n; p++ {
			sink += ADCU32(lut, codes[p*m:(p+1)*m], cb)
		}
	}
	_ = sink
}

func BenchmarkADCU32M16Unrolled(b *testing.B) {
	const m, cb, n = 16, 256, 1024
	lut, codes := adcFixture(m, cb, n)
	b.SetBytes(int64(n * m * 2))
	var sink uint32
	for i := 0; i < b.N; i++ {
		for p := 0; p < n; p++ {
			sink += ADCU32M16(lut, codes[p*m:(p+1)*m], cb)
		}
	}
	_ = sink
}

func BenchmarkADCBatchU32M16(b *testing.B) {
	const m, cb, n = 16, 256, 1024
	lut, codes := adcFixture(m, cb, n)
	dst := make([]uint32, n)
	b.SetBytes(int64(n * m * 2))
	for i := 0; i < b.N; i++ {
		ADCBatchU32(dst, lut, codes, m, cb)
	}
}

func BenchmarkADCBatchU32M8(b *testing.B) {
	const m, cb, n = 8, 256, 1024
	lut, codes := adcFixture(m, cb, n)
	dst := make([]uint32, n)
	b.SetBytes(int64(n * m * 2))
	for i := 0; i < b.N; i++ {
		ADCBatchU32(dst, lut, codes, m, cb)
	}
}

func BenchmarkADCResidualBatchM16(b *testing.B) {
	const m, cb, n = 16, 256, 1024
	_, codes := adcFixture(m, cb, n)
	rng := rand.New(rand.NewSource(4))
	qe := make([]int32, m*cb)
	for i := range qe {
		qe[i] = int32(rng.Intn(1 << 20))
	}
	bsum := make([]int32, n)
	for i := range bsum {
		bsum[i] = int32(rng.Intn(1 << 24))
	}
	dst := make([]uint32, n)
	b.SetBytes(int64(n * m * 2))
	for i := 0; i < b.N; i++ {
		ADCResidualBatch(dst, qe, codes, bsum, 12345, m, cb)
	}
}

func BenchmarkArgMinL2F32(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const k, dim = 1024, 128
	centroids := make([]float32, k*dim)
	for i := range centroids {
		centroids[i] = rng.Float32()
	}
	query := centroids[:dim]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ArgMinL2F32(query, centroids, dim)
	}
}

// argMinFixture draws k clustered rows and queries near random rows, so the
// nearest row is found early but not at distance zero — the shape of a
// trained k-means assignment.
func argMinFixture(k, dim, nq int) (centroids, queries []float32) {
	rng := rand.New(rand.NewSource(3))
	centroids = make([]float32, k*dim)
	for i := range centroids {
		centroids[i] = float32(rng.NormFloat64() * 30)
	}
	queries = make([]float32, nq*dim)
	for q := 0; q < nq; q++ {
		row := rng.Intn(k)
		for j := 0; j < dim; j++ {
			queries[q*dim+j] = centroids[row*dim+j] + float32(rng.NormFloat64()*20)
		}
	}
	return centroids, queries
}

var argMinSink int

func benchArgMin(b *testing.B, k, dim int) {
	const nq = 64
	centroids, queries := argMinFixture(k, dim, nq)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % nq
		argMinSink, _ = ArgMinL2F32(queries[q*dim:(q+1)*dim], centroids, dim)
	}
}

// BenchmarkArgMinL2F32Dim128K256 is the coarse-quantizer assignment shape
// (NList 256 over 128-dimensional vectors).
func BenchmarkArgMinL2F32Dim128K256(b *testing.B) { benchArgMin(b, 256, 128) }

// BenchmarkArgMinL2F32Dim8K256 is the PQ encode shape (CB 256, dsub 8).
func BenchmarkArgMinL2F32Dim8K256(b *testing.B) { benchArgMin(b, 256, 8) }

// BenchmarkArgMinL2F32Dim4K256 exercises the generic short-row kernel.
func BenchmarkArgMinL2F32Dim4K256(b *testing.B) { benchArgMin(b, 256, 4) }
