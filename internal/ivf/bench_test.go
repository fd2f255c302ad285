package ivf

import (
	"sync"
	"testing"

	"drimann/internal/dataset"
	"drimann/internal/kmeans"
	"drimann/internal/pq"
	"drimann/internal/vecmath"
)

var (
	benchOnce sync.Once
	benchIx   *Index
	benchData *dataset.Synth
)

func benchIndex(b *testing.B) (*Index, *dataset.Synth) {
	b.Helper()
	benchOnce.Do(func() {
		benchData = dataset.Generate(dataset.SynthConfig{
			N: 20000, D: 64, NumQueries: 64, NumClusters: 64, Noise: 9, Seed: 13,
		})
		ix, err := Build(benchData.Base, BuildConfig{
			NList: 128, PQ: pq.Config{M: 16, CB: 64}, Seed: 3,
		})
		if err != nil {
			panic(err)
		}
		benchIx = ix
	})
	return benchIx, benchData
}

func BenchmarkLocateInt(b *testing.B) {
	ix, s := benchIndex(b)
	for i := 0; i < b.N; i++ {
		ix.LocateInt(s.Queries.Vec(i%s.Queries.N), 16)
	}
}

func BenchmarkSearchIntNprobe16(b *testing.B) {
	ix, s := benchIndex(b)
	for i := 0; i < b.N; i++ {
		ix.SearchInt(s.Queries.Vec(i%s.Queries.N), 16, 10)
	}
}

func BenchmarkSearchFloatNprobe16(b *testing.B) {
	ix, s := benchIndex(b)
	for i := 0; i < b.N; i++ {
		ix.Search(s.Queries.Vec(i%s.Queries.N), 16, 10)
	}
}

func BenchmarkBuild20k(b *testing.B) {
	_, s := benchIndex(b)
	for i := 0; i < b.N; i++ {
		if _, err := Build(s.Base, BuildConfig{
			NList: 128, PQ: pq.Config{M: 16, CB: 64, Iters: 8}, KMeansIters: 8, Seed: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// sift20kConfig is the IVF build of the serving benchmark's ivf-hot
// workload: 20k SIFT-shaped 128-d points, NList 256, M16/CB256, four coarse
// k-means iterations on a half-corpus training sample.
func sift20kConfig(n int) BuildConfig {
	return BuildConfig{
		NList: 256, PQ: pq.Config{M: 16, CB: 256},
		KMeansIters: 4, TrainSample: n / 2, Seed: 1,
	}
}

// sift20kStages holds the inputs of each build stage, taken from one
// reference build so every stage benchmark sees the data Build sees.
type sift20kStages struct {
	base      dataset.U8Set
	train     []float32 // the strided training sample
	centroids []float32 // trained coarse centroids
	residuals []float32 // PQ training residuals (over the sample)
	encodeIn  []float32 // residuals of the whole corpus (the encode pass)
	quant     *pq.Quantizer
}

var (
	sift20kOnce sync.Once
	sift20k     sift20kStages
)

func sift20kFixture(b *testing.B) *sift20kStages {
	b.Helper()
	sift20kOnce.Do(func() {
		s := dataset.Generate(dataset.SynthConfig{
			Name: "SIFT", N: 20000, D: 128, NumQueries: 1, ZipfS: 1.05, Seed: 1,
		})
		cfg := sift20kConfig(s.Base.N)
		ix, err := Build(s.Base, cfg)
		if err != nil {
			panic(err)
		}
		d := s.Base.D
		data := s.Base.F32().Data
		assign := make([]int32, s.Base.N)
		for c, list := range ix.Lists {
			for _, id := range list {
				assign[id] = int32(c)
			}
		}
		st := sift20kStages{base: s.Base, centroids: ix.Centroids, quant: ix.PQ,
			encodeIn: make([]float32, len(data))}
		for i := 0; i < s.Base.N; i++ {
			c := int(assign[i])
			vecmath.SubF32(st.encodeIn[i*d:(i+1)*d], data[i*d:(i+1)*d], ix.Centroids[c*d:(c+1)*d])
		}
		stride := s.Base.N / cfg.TrainSample
		for i := 0; i < s.Base.N && len(st.train) < cfg.TrainSample*d; i += stride {
			st.train = append(st.train, data[i*d:(i+1)*d]...)
			st.residuals = append(st.residuals, st.encodeIn[i*d:(i+1)*d]...)
		}
		sift20k = st
	})
	return &sift20k
}

// BenchmarkBuildSIFT20k is the whole ivf.Build of the ivf-hot workload.
func BenchmarkBuildSIFT20k(b *testing.B) {
	st := sift20kFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(st.base, sift20kConfig(st.base.N)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildSIFT20kCoarseTrain is the coarse quantizer stage:
// kmeans.Train over the training sample.
func BenchmarkBuildSIFT20kCoarseTrain(b *testing.B) {
	st := sift20kFixture(b)
	cfg := sift20kConfig(st.base.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kmeans.Train(st.train, kmeans.Config{
			K: cfg.NList, Dim: st.base.D, MaxIters: cfg.KMeansIters, Seed: cfg.Seed,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildSIFT20kAssign is the stage that maps the whole corpus onto
// the coarse centroids.
func BenchmarkBuildSIFT20kAssign(b *testing.B) {
	st := sift20kFixture(b)
	data := st.base.F32().Data
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kmeans.Assign(data, st.centroids, st.base.D, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildSIFT20kPQTrain is the product-quantizer stage: pq.Train
// over the training residuals.
func BenchmarkBuildSIFT20kPQTrain(b *testing.B) {
	st := sift20kFixture(b)
	cfg := sift20kConfig(st.base.N)
	pcfg := cfg.PQ
	pcfg.Seed = cfg.Seed + 1000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pq.Train(st.residuals, st.base.D, pcfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildSIFT20kEncode is the encode pass over the whole corpus's
// residuals, on one goroutine (Build spreads it over Workers).
func BenchmarkBuildSIFT20kEncode(b *testing.B) {
	st := sift20kFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.quant.EncodeAll(st.encodeIn)
	}
}
