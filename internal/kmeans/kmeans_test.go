package kmeans

import (
	"math"
	"math/rand"
	"testing"

	"drimann/internal/vecmath"
)

// blobs generates k well-separated Gaussian blobs with n points each.
func blobs(rng *rand.Rand, k, n, dim int, sep float64) ([]float32, []int32) {
	data := make([]float32, 0, k*n*dim)
	labels := make([]int32, 0, k*n)
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = float64(c) * sep
		}
	}
	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			for j := 0; j < dim; j++ {
				data = append(data, float32(centers[c][j]+rng.NormFloat64()*0.5))
			}
			labels = append(labels, int32(c))
		}
	}
	return data, labels
}

func TestTrainRecoversBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data, labels := blobs(rng, 4, 100, 8, 20)
	res, err := Train(data, Config{K: 4, Dim: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// All points from one blob must land in one cluster (perfect separation).
	mapping := map[int32]int32{}
	for i, lab := range labels {
		got := res.Assign[i]
		if want, ok := mapping[lab]; ok {
			if got != want {
				t.Fatalf("blob %d split across clusters %d and %d", lab, want, got)
			}
		} else {
			mapping[lab] = got
		}
	}
	if len(mapping) != 4 {
		t.Fatalf("expected 4 distinct clusters, got %d", len(mapping))
	}
}

func TestTrainInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data, _ := blobs(rng, 3, 50, 4, 10)
	res, err := Train(data, Config{K: 5, Dim: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := len(data) / 4
	if len(res.Assign) != n {
		t.Fatalf("Assign length %d, want %d", len(res.Assign), n)
	}
	total := 0
	for c, s := range res.Sizes {
		if s < 0 {
			t.Fatalf("negative cluster size at %d", c)
		}
		total += s
	}
	if total != n {
		t.Fatalf("sizes sum %d, want %d", total, n)
	}
	for i, a := range res.Assign {
		if a < 0 || int(a) >= res.K {
			t.Fatalf("assignment %d out of range at %d", a, i)
		}
	}
	if res.Inertia < 0 || math.IsNaN(res.Inertia) {
		t.Fatalf("bad inertia %v", res.Inertia)
	}
}

func TestTrainAssignsNearestCentroid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data, _ := blobs(rng, 3, 60, 6, 15)
	res, err := Train(data, Config{K: 3, Dim: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(res.Assign); i++ {
		vec := data[i*6 : (i+1)*6]
		best, _ := vecmath.ArgMinL2F32(vec, res.Centroids, 6)
		if int32(best) != res.Assign[i] {
			t.Fatalf("point %d assigned to %d but nearest centroid is %d", i, res.Assign[i], best)
		}
	}
}

func TestTrainDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data, _ := blobs(rng, 2, 40, 4, 8)
	a, err := Train(data, Config{K: 2, Dim: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(data, Config{K: 2, Dim: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Centroids {
		if a.Centroids[i] != b.Centroids[i] {
			t.Fatalf("non-deterministic centroid at %d", i)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train([]float32{1, 2, 3}, Config{K: 2, Dim: 2}); err == nil {
		t.Fatal("expected error for ragged data")
	}
	if _, err := Train([]float32{1, 2}, Config{K: 3, Dim: 2}); err == nil {
		t.Fatal("expected error for n < K")
	}
	if _, err := Train(nil, Config{K: 0, Dim: 2}); err == nil {
		t.Fatal("expected error for K=0")
	}
}

func TestTrainHandlesDuplicatePoints(t *testing.T) {
	// All points identical: K clusters must still be produced without NaNs.
	data := make([]float32, 20*3)
	for i := range data {
		data[i] = 7
	}
	res, err := Train(data, Config{K: 4, Dim: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Centroids {
		if math.IsNaN(float64(c)) {
			t.Fatal("NaN centroid on degenerate input")
		}
	}
}

func TestMiniBatchConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data, labels := blobs(rng, 3, 300, 8, 25)
	res, err := Train(data, Config{K: 3, Dim: 8, Seed: 2, MiniBatch: 128, MaxIters: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Mini-batch should still separate blobs cleanly at this separation.
	mapping := map[int32]map[int32]int{}
	for i, lab := range labels {
		if mapping[lab] == nil {
			mapping[lab] = map[int32]int{}
		}
		mapping[lab][res.Assign[i]]++
	}
	for lab, m := range mapping {
		bestCount, total := 0, 0
		for _, cnt := range m {
			total += cnt
			if cnt > bestCount {
				bestCount = cnt
			}
		}
		if float64(bestCount)/float64(total) < 0.95 {
			t.Fatalf("blob %d poorly clustered by mini-batch: %v", lab, m)
		}
	}
}

func TestAssignHelper(t *testing.T) {
	centroids := []float32{0, 0, 10, 10}
	data := []float32{1, 1, 9, 9, 0, 0}
	got, err := Assign(data, centroids, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Assign[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if _, err := Assign([]float32{1}, centroids, 2, 1); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestInertiaDecreasesVsRandomCentroids(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data, _ := blobs(rng, 4, 80, 8, 12)
	res, err := Train(data, Config{K: 4, Dim: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Inertia with random centroids (first 4 points) must be much worse.
	randCent := make([]float32, 4*8)
	copy(randCent, data[:4*8])
	assign := make([]int32, len(data)/8)
	cfg := Config{Dim: 8, Workers: 2}
	cfg.defaults()
	randInertia := assignAll(data, randCent, assign, nil, cfg)
	if res.Inertia >= randInertia {
		t.Fatalf("trained inertia %v not better than naive %v", res.Inertia, randInertia)
	}
}

// TestTrainIndependentOfWorkers: seeding, assignment and inertia give the
// same bits at every worker count, on both the short-row and the long-row
// distance kernels and with mini-batches that sample a point twice.
func TestTrainIndependentOfWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dim := range []int{8, 40} {
		data, _ := blobs(rng, 6, 150, dim, 3)
		for _, batch := range []int{0, 400} {
			cfg := Config{K: 13, Dim: dim, MaxIters: 5, Seed: 6, MiniBatch: batch, Workers: 1}
			want, err := Train(data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 5} {
				cfg.Workers = workers
				got, err := Train(data, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) || got.Iters != want.Iters {
					t.Fatalf("dim=%d batch=%d workers=%d: inertia %v iters %d, want %v %d",
						dim, batch, workers, got.Inertia, got.Iters, want.Inertia, want.Iters)
				}
				for i := range want.Centroids {
					if math.Float32bits(got.Centroids[i]) != math.Float32bits(want.Centroids[i]) {
						t.Fatalf("dim=%d batch=%d workers=%d: centroid element %d differs", dim, batch, workers, i)
					}
				}
				for i := range want.Assign {
					if got.Assign[i] != want.Assign[i] {
						t.Fatalf("dim=%d batch=%d workers=%d: point %d assigned %d, want %d",
							dim, batch, workers, i, got.Assign[i], want.Assign[i])
					}
				}
			}
		}
	}
}
