// Package kmeans provides the clustering used to train both the IVF coarse
// quantizer and the per-subspace PQ codebooks: k-means++ seeding followed by
// Lloyd iterations, optional mini-batch updates for large corpora, and
// empty-cluster repair.
//
// The seeding's distance updates and every assignment pass run across
// Config.Workers goroutines. The result does not depend on Workers: each
// point's distances are computed the same way whichever goroutine runs them
// (vecmath's kernels keep one summation order), and everything that sums or
// draws across points — the D² total and pick, the centroid means, the
// inertia — runs serially in point order.
package kmeans

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"drimann/internal/vecmath"
)

// Config controls training.
type Config struct {
	K        int   // number of centroids; required
	Dim      int   // vector dimensionality; required
	MaxIters int   // Lloyd iterations; default 25
	Seed     int64 // RNG seed; default 1
	// MiniBatch, when > 0, caps the number of points sampled per iteration.
	// Zero uses the full dataset each iteration.
	MiniBatch int
	// Tol stops early when the relative inertia improvement falls below it;
	// default 1e-4.
	Tol float64
	// Workers bounds seeding and assignment parallelism; default
	// runtime.GOMAXPROCS(0). It does not change the result.
	Workers int
}

func (c *Config) defaults() {
	if c.MaxIters <= 0 {
		c.MaxIters = 25
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Tol <= 0 {
		c.Tol = 1e-4
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// Result holds a trained clustering.
type Result struct {
	K, Dim    int
	Centroids []float32 // flat K x Dim
	Assign    []int32   // len N: cluster index per input point
	Sizes     []int     // len K: points per cluster
	Inertia   float64   // final sum of squared distances
	Iters     int       // Lloyd iterations actually run
}

// Centroid returns centroid i as a slice view.
func (r *Result) Centroid(i int) []float32 {
	return r.Centroids[i*r.Dim : (i+1)*r.Dim]
}

// Train clusters the flat data (N x cfg.Dim) into cfg.K clusters.
func Train(data []float32, cfg Config) (*Result, error) {
	cfg.defaults()
	if cfg.Dim <= 0 || cfg.K <= 0 {
		return nil, fmt.Errorf("kmeans: invalid config K=%d Dim=%d", cfg.K, cfg.Dim)
	}
	if len(data)%cfg.Dim != 0 {
		return nil, fmt.Errorf("kmeans: data length %d not a multiple of dim %d", len(data), cfg.Dim)
	}
	n := len(data) / cfg.Dim
	if n < cfg.K {
		return nil, fmt.Errorf("kmeans: %d points < K=%d", n, cfg.K)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	centroids := seedPlusPlus(data, n, cfg, rng)
	assign := make([]int32, n)
	prevInertia := math.Inf(1)
	iters := 0

	for it := 0; it < cfg.MaxIters; it++ {
		iters = it + 1
		sample := sampleIdx(n, cfg.MiniBatch, rng)
		inertia := assignAll(data, centroids, assign, sample, cfg)
		updateCentroids(data, centroids, assign, sample, cfg, rng)
		if sample == nil { // exact inertia only meaningful on full passes
			if prevInertia-inertia <= cfg.Tol*prevInertia {
				break
			}
			prevInertia = inertia
		}
	}
	// Final full assignment so Assign/Sizes reflect the returned centroids.
	inertia := assignAll(data, centroids, assign, nil, cfg)

	sizes := make([]int, cfg.K)
	for _, a := range assign {
		sizes[a]++
	}
	return &Result{
		K: cfg.K, Dim: cfg.Dim,
		Centroids: centroids,
		Assign:    assign,
		Sizes:     sizes,
		Inertia:   inertia,
		Iters:     iters,
	}, nil
}

// seedPlusPlus picks initial centroids with the k-means++ D² weighting. The
// per-point D² updates run across cfg.Workers; the running total and the
// weighted pick stay serial, in point order, so the seeds do not depend on
// Workers.
func seedPlusPlus(data []float32, n int, cfg Config, rng *rand.Rand) []float32 {
	dim := cfg.Dim
	centroids := make([]float32, cfg.K*dim)
	first := rng.Intn(n)
	copy(centroids[:dim], data[first*dim:(first+1)*dim])

	// d2 holds each point's float32 distance to its nearest seed; the
	// weights are those distances widened to float64.
	d2 := make([]float32, n)
	parallelRange(n, cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d2[i] = vecmath.L2SquaredF32(data[i*dim:(i+1)*dim], centroids[:dim])
		}
	})
	for c := 1; c < cfg.K; c++ {
		var total float64
		for _, d := range d2 {
			total += float64(d)
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n) // all points coincide with a centroid
		} else {
			r := rng.Float64() * total
			acc := 0.0
			pick = n - 1
			for i, d := range d2 {
				acc += float64(d)
				if acc >= r {
					pick = i
					break
				}
			}
		}
		dst := centroids[c*dim : (c+1)*dim]
		copy(dst, data[pick*dim:(pick+1)*dim])
		parallelRange(n, cfg.Workers, func(lo, hi int) {
			vecmath.MinL2F32(d2[lo:hi], data[lo*dim:hi*dim], dst)
		})
	}
	return centroids
}

// parallelRange splits [0, n) into at most workers contiguous chunks and
// runs fn on each, concurrently when there is more than one. It returns
// when every chunk is done.
func parallelRange(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// sampleIdx returns a mini-batch index set, or nil for a full pass.
func sampleIdx(n, batch int, rng *rand.Rand) []int32 {
	if batch <= 0 || batch >= n {
		return nil
	}
	idx := make([]int32, batch)
	for i := range idx {
		idx[i] = int32(rng.Intn(n))
	}
	return idx
}

// assignAll assigns points (all, or just the sample) to nearest centroids in
// parallel and returns the summed squared distance over the points visited.
// Results are written back and summed serially in visiting order, so the
// sum does not depend on Workers and a point sampled twice is never written
// concurrently.
func assignAll(data, centroids []float32, assign []int32, sample []int32, cfg Config) float64 {
	count := len(assign)
	if sample != nil {
		count = len(sample)
	}
	point := func(i int) int {
		if sample == nil {
			return i
		}
		return int(sample[i])
	}
	nearest := make([]int32, count)
	dist := make([]float32, count)
	parallelRange(count, cfg.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := point(i)
			best, d := vecmath.ArgMinL2F32(data[p*cfg.Dim:(p+1)*cfg.Dim], centroids, cfg.Dim)
			nearest[i], dist[i] = int32(best), d
		}
	})
	var inertia float64
	for i, d := range dist {
		assign[point(i)] = nearest[i]
		inertia += float64(d)
	}
	return inertia
}

// updateCentroids recomputes centroids as the mean of their members (over the
// sample when mini-batching) and repairs empty clusters by re-seeding them on
// the point farthest from its centroid.
func updateCentroids(data, centroids []float32, assign []int32, sample []int32, cfg Config, rng *rand.Rand) {
	sums := make([]float64, cfg.K*cfg.Dim)
	counts := make([]int, cfg.K)
	visit := func(p int) {
		c := int(assign[p])
		row := data[p*cfg.Dim : (p+1)*cfg.Dim]
		dst := sums[c*cfg.Dim : (c+1)*cfg.Dim]
		for j, x := range row {
			dst[j] += float64(x)
		}
		counts[c]++
	}
	if sample == nil {
		for p := 0; p < len(assign); p++ {
			visit(p)
		}
	} else {
		for _, p := range sample {
			visit(int(p))
		}
	}
	for c := 0; c < cfg.K; c++ {
		if counts[c] == 0 {
			continue
		}
		inv := 1 / float64(counts[c])
		dst := centroids[c*cfg.Dim : (c+1)*cfg.Dim]
		src := sums[c*cfg.Dim : (c+1)*cfg.Dim]
		for j := range dst {
			dst[j] = float32(src[j] * inv)
		}
	}
	// Empty-cluster repair: re-seed on the member farthest from its centroid
	// within the currently largest cluster.
	for c := 0; c < cfg.K; c++ {
		if counts[c] > 0 {
			continue
		}
		big := 0
		for k := range counts {
			if counts[k] > counts[big] {
				big = k
			}
		}
		worst, worstD := -1, float32(-1)
		limit := len(assign)
		for p := 0; p < limit; p++ {
			if int(assign[p]) != big {
				continue
			}
			d := vecmath.L2SquaredF32(data[p*cfg.Dim:(p+1)*cfg.Dim], centroids[big*cfg.Dim:(big+1)*cfg.Dim])
			if d > worstD {
				worst, worstD = p, d
			}
		}
		if worst < 0 {
			worst = rng.Intn(len(assign))
		}
		copy(centroids[c*cfg.Dim:(c+1)*cfg.Dim], data[worst*cfg.Dim:(worst+1)*cfg.Dim])
		assign[worst] = int32(c)
		counts[c]++
		counts[big]--
	}
}

// Assign maps each row of flat data (N x dim) to its nearest centroid, in
// parallel. It returns one cluster index per row.
func Assign(data, centroids []float32, dim, workers int) ([]int32, error) {
	if dim <= 0 || len(data)%dim != 0 || len(centroids)%dim != 0 {
		return nil, errors.New("kmeans: bad shapes in Assign")
	}
	assign := make([]int32, len(data)/dim)
	cfg := Config{Dim: dim, Workers: workers}
	cfg.defaults()
	assignAll(data, centroids, assign, nil, cfg)
	return assign, nil
}
