package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"drimann/internal/cluster"
	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/durable"
	"drimann/internal/engine"
	"drimann/internal/graph"
	"drimann/internal/ivf"
	"drimann/internal/pq"
	"drimann/internal/serve"
	"drimann/internal/topk"
)

const (
	dim      = 128
	nQueries = 1024 // workload queries; as many again profile the IVF layout
	poolSize = 1024
	// writeEvery: one request in this many is a write. On the read-only
	// workloads the write is an empty mutation, so write_p50_ms still
	// measures the write path's wait for the batcher.
	writeEvery = 20
	k          = 10
	// latencyLimit is the read p90 that max_qps must keep. Each
	// workload's p90 jumps from tens to hundreds of milliseconds within a
	// tenth of its capacity, so a limit there pins capacity far more
	// steadily than one on the gentle slope below, where run-to-run noise
	// moved the crossing by a fifth.
	latencyLimit = 0.100
)

// workload is one traffic mix over one deployment of the program.
type workload struct {
	name     string
	n        int     // corpus size
	hotspots int     // > 0: hotspot-skewed queries; 0: uniform queries
	rate     float64 // fixed open-loop rate, requests/s
	readOnly bool    // writes are write-path barriers that change nothing
	setup    func(c *corpus, env setupEnv) (system, *setupClock, error)
}

// workloads: why each was chosen is recorded in BENCHMARK.json.
var workloads = []workload{
	{
		name: "ivf-hot",
		n:    20000, hotspots: 64, rate: 800, readOnly: true,
		setup: setupIVF,
	},
	{
		name: "fleet-rw",
		n:    20000, rate: 500,
		setup: setupFleet,
	},
	{
		name: "graph-read",
		n:    8000, rate: 3000, readOnly: true,
		setup: setupGraph,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// corpus is a workload's input, made only from the seed: the program
// receives the generated vectors and nothing else.
type corpus struct {
	base, queries, profile dataset.U8Set
	pool                   dataset.U8Set // points the fleet inserts
	victims                []int32       // base ids the fleet deletes, in order
	gt                     [][]int32     // exact top-k of queries over base
}

// mixtureSeed fixes the SIFT-shaped mixture each workload samples from.
// The workload seed draws the sample (base points, insert pool, queries),
// so runs with different seeds differ in their inputs but not in their
// distribution: a seed-dependent mixture (its Zipf cluster sizes, centers
// and hotspots) moved recall and simulated QPS by up to a quarter between
// seeds, wider than any bound could allow. A mild Zipf skew keeps the
// sample-to-sample spread small too.
const mixtureSeed = 1

func makeCorpus(w workload, seed int64) *corpus {
	cfg := dataset.SynthConfig{Name: "SIFT", N: 2 * (w.n + poolSize), D: dim,
		NumQueries: 8 * nQueries, ZipfS: 1.05,
		Seed: mixtureSeed, Hotspots: w.hotspots}
	if w.hotspots == 0 {
		cfg.QuerySkew = 1e-9 // latent clusters picked uniformly
	}
	mix := dataset.Generate(cfg)
	rng := rand.New(rand.NewSource(seed))
	pick := func(from dataset.U8Set, rows []int) dataset.U8Set {
		out := dataset.U8Set{N: len(rows), D: dim, Data: make([]uint8, 0, len(rows)*dim)}
		for _, i := range rows {
			out.Data = append(out.Data, from.Vec(i)...)
		}
		return out
	}
	// Picked points keep the generator's order (grouped by latent
	// cluster), the order every other consumer of internal/dataset sees.
	points := rng.Perm(mix.Base.N)
	sort.Ints(points[:w.n])
	queries := rng.Perm(mix.Queries.N)
	c := &corpus{
		base:    pick(mix.Base, points[:w.n]),
		pool:    pick(mix.Base, points[w.n:w.n+poolSize]),
		profile: pick(mix.Queries, queries[:nQueries]),
		queries: pick(mix.Queries, queries[nQueries:2*nQueries]),
	}
	for _, id := range rng.Perm(w.n)[:poolSize] {
		c.victims = append(c.victims, int32(id))
	}
	c.gt = dataset.GroundTruth(c.base, c.queries, k, 0)
	return c
}

// system is the program as set up for one workload.
type system interface {
	// search serves one read through the workload's front door.
	search(ctx context.Context, q []uint8) ([]int32, []topk.Item[uint32], error)
	// write performs one scheduled write.
	write(ctx context.Context, o op) error
	// offline runs the offline batch search; only before serving starts.
	offline(q dataset.U8Set) (*engine.Result, error)
	// serveStats is the (summed) serve.Server ledger.
	serveStats() serve.Stats
	// close stops serving, then checks that every ledger balances.
	close() error
}

// setupEnv is what a workload's set-up needs besides the corpus.
type setupEnv struct {
	dir string  // scratch directory for durable state
	tr  *tracer // nil: untraced
	fs  *countingFS
}

// setupClock sums the wall time of the program's own set-up calls only.
type setupClock struct {
	total  float64
	layers map[string]float64
}

func (c *setupClock) time(layer string, fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start).Seconds()
	c.total += d
	if layer != "" {
		c.layers[layer] += d
	}
	return err
}

func newClock() *setupClock { return &setupClock{layers: map[string]float64{}} }

func buildIVF(c *corpus, clk *setupClock) (*ivf.Index, error) {
	var ix *ivf.Index
	err := clk.time("ivf.build_s", func() (err error) {
		// ivf.Build trains on a strided sample; half the corpus makes the
		// stride cover every point range, so no latent cluster is missed.
		ix, err = ivf.Build(c.base, ivf.BuildConfig{
			NList: 256, PQ: pq.Config{M: 16, CB: 256},
			KMeansIters: 4, TrainSample: c.base.N / 2, Seed: 1,
		})
		return err
	})
	return ix, err
}

// single is one engine behind one serve.Server.
type single struct {
	eng engine.Engine
	srv *serve.Server
}

func serveEngine(eng engine.Engine, env setupEnv, launchSpan string, clk *setupClock) (*single, error) {
	if env.tr != nil {
		var err error
		if eng, err = wrapEngine(eng, env.tr, launchSpan); err != nil {
			return nil, err
		}
	}
	s := &single{eng: eng}
	err := clk.time("", func() (err error) {
		s.srv, err = serve.New(eng, serve.Options{})
		return err
	})
	return s, err
}

func setupIVF(c *corpus, env setupEnv) (system, *setupClock, error) {
	clk := newClock()
	ix, err := buildIVF(c, clk)
	if err != nil {
		return nil, nil, err
	}
	var eng *core.Engine
	if err := clk.time("core.new_s", func() (err error) {
		eng, err = core.New(ix, c.profile, core.DefaultOptions())
		return err
	}); err != nil {
		return nil, nil, err
	}
	s, err := serveEngine(eng, env, "core.SearchBatch", clk)
	return s, clk, err
}

func setupGraph(c *corpus, env setupEnv) (system, *setupClock, error) {
	clk := newClock()
	var eng *graph.Engine
	if err := clk.time("graph.build_s", func() (err error) {
		eng, err = graph.New(c.base, graph.DefaultOptions())
		return err
	}); err != nil {
		return nil, nil, err
	}
	s, err := serveEngine(eng, env, "graph.SearchBatch", clk)
	return s, clk, err
}

func (s *single) search(ctx context.Context, q []uint8) ([]int32, []topk.Item[uint32], error) {
	defer timed(ctx, "serve.Search")()
	r, err := s.srv.Search(ctx, q, 0)
	return r.IDs, r.Items, err
}

// write on a read-only deployment is the write path's barrier alone: an
// empty mutation through serve.Server.Exclusive, which waits out the
// launch in flight exactly as an Insert or Delete would.
func (s *single) write(ctx context.Context, _ op) error {
	defer timed(ctx, "serve.Exclusive")()
	return s.srv.Exclusive(func() error { return nil })
}

func (s *single) offline(q dataset.U8Set) (*engine.Result, error) { return s.eng.SearchBatch(q) }

func (s *single) serveStats() serve.Stats { return s.srv.Stats() }

func (s *single) close() error {
	if err := s.srv.Close(); err != nil {
		return err
	}
	return balanced("serve", s.srv.Stats())
}

func balanced(who string, st serve.Stats) error {
	if st.Enqueued != st.Completed+st.Canceled+st.Failed {
		return fmt.Errorf("%s ledger unbalanced: enqueued %d != completed %d + canceled %d + failed %d",
			who, st.Enqueued, st.Completed, st.Canceled, st.Failed)
	}
	return nil
}

// fleet is a hash-sharded cluster behind cluster.Server with a fleet WAL.
type fleet struct {
	c   *corpus
	cl  *cluster.Cluster
	srv *cluster.Server
	fst *cluster.FleetStore
	dir string

	// Fixed-phase writes alternate inserting pool[j] as id n+j and deleting
	// victims[j]; none depends on another, so the final corpus is the same
	// whatever order they land in. acked records which ones succeeded.
	ackMu  sync.Mutex
	acked  map[int]bool
	tempID atomic.Int32
	temps  []int32 // capacity-phase inserts acknowledged and not yet deleted

	fanout, reads atomic.Int64
}

func setupFleet(c *corpus, env setupEnv) (system, *setupClock, error) {
	clk := newClock()
	ix, err := buildIVF(c, clk)
	if err != nil {
		return nil, nil, err
	}
	f := &fleet{c: c, dir: env.dir, acked: map[int]bool{}}
	f.tempID.Store(int32(2 * (c.base.N + c.pool.N)))
	if err := clk.time("cluster.new_s", func() (err error) {
		f.cl, err = cluster.New(ix, c.profile, cluster.Options{
			Shards: 4, Replicas: 1, Assignment: cluster.AssignHash, Engine: core.DefaultOptions()})
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := os.RemoveAll(env.dir); err != nil {
		return nil, nil, err
	}
	opt := durable.Options{Dir: env.dir, Policy: durable.SyncEveryBatch}
	if env.fs != nil {
		opt.FS = env.fs
	}
	if err := clk.time("", func() (err error) {
		f.fst, err = cluster.CreateFleetStore(f.cl, opt)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := clk.time("", func() (err error) {
		f.srv, err = cluster.NewServer(f.cl, serve.Options{})
		return err
	}); err != nil {
		return nil, nil, errors.Join(err, f.fst.Close())
	}
	return f, clk, nil
}

func (f *fleet) search(ctx context.Context, q []uint8) ([]int32, []topk.Item[uint32], error) {
	defer timed(ctx, "cluster.Search")()
	r, err := f.srv.Search(ctx, q, 0)
	if err == nil {
		f.fanout.Add(int64(r.ShardsContacted))
		f.reads.Add(1)
	}
	return r.IDs, r.Items, err
}

func (f *fleet) insert(ctx context.Context, vec []uint8, id int32) error {
	defer timed(ctx, "cluster.Insert")()
	return f.srv.Insert(dataset.U8Set{N: 1, D: dim, Data: vec}, []int32{id})
}

func (f *fleet) delete(ctx context.Context, id int32) error {
	defer timed(ctx, "cluster.Delete")()
	return f.srv.Delete([]int32{id})
}

func (f *fleet) write(ctx context.Context, o op) error {
	j := o.i / 2
	if o.kind == opWrite {
		var err error
		if o.i%2 == 0 {
			err = f.insert(ctx, f.c.pool.Vec(j), int32(f.c.base.N+j))
		} else {
			err = f.delete(ctx, f.c.victims[j])
		}
		if err == nil {
			f.ackMu.Lock()
			f.acked[o.i] = true
			f.ackMu.Unlock()
		}
		return err
	}
	// Capacity-phase writes: insert fresh ids and delete them again, so the
	// phase leaves the corpus as it found it however far the search went.
	if o.i%2 == 1 {
		f.ackMu.Lock()
		var id int32 = -1
		if n := len(f.temps); n > 0 {
			id, f.temps = f.temps[n-1], f.temps[:n-1]
		}
		f.ackMu.Unlock()
		if id >= 0 {
			return f.delete(ctx, id)
		}
	}
	id := f.tempID.Add(1)
	if err := f.insert(ctx, f.c.pool.Vec(j%f.c.pool.N), id); err != nil {
		return err
	}
	f.ackMu.Lock()
	f.temps = append(f.temps, id)
	f.ackMu.Unlock()
	return nil
}

func (f *fleet) offline(q dataset.U8Set) (*engine.Result, error) { return f.cl.SearchBatch(q) }

func (f *fleet) serveStats() serve.Stats { return f.srv.Stats().Agg }

func (f *fleet) close() error {
	var errs []error
	if len(f.temps) > 0 {
		errs = append(errs, f.srv.Delete(f.temps))
		f.temps = nil
	}
	errs = append(errs, f.srv.Close())
	st := f.srv.Stats()
	for si, sh := range st.Shards {
		for ri, rs := range sh.Replicas {
			errs = append(errs, balanced(fmt.Sprintf("shard %d replica %d", si, ri), rs.Stats))
		}
	}
	errs = append(errs, f.fst.Close(), os.RemoveAll(f.dir))
	return errors.Join(errs...)
}

// finalCorpus is the fleet's live corpus once the fixed-phase writes have
// landed: base minus the acknowledged deletes plus the acknowledged
// inserts, with each row's global id, and the set of deleted ids.
func (f *fleet) finalCorpus() (dataset.U8Set, []int32, map[int32]bool) {
	deleted := map[int32]bool{}
	var inserted []int
	for i := range f.acked {
		if i%2 == 1 {
			deleted[f.c.victims[i/2]] = true
		} else {
			inserted = append(inserted, i/2)
		}
	}
	sort.Ints(inserted)
	live := dataset.U8Set{D: dim}
	var ids []int32
	for i := 0; i < f.c.base.N; i++ {
		if !deleted[int32(i)] {
			live.Data = append(live.Data, f.c.base.Vec(i)...)
			ids = append(ids, int32(i))
		}
	}
	for _, j := range inserted {
		live.Data = append(live.Data, f.c.pool.Vec(j)...)
		ids = append(ids, int32(f.c.base.N+j))
	}
	live.N = len(ids)
	return live, ids, deleted
}

// finalRecall scores the fleet against brute force over its final live
// corpus and counts answers naming a point whose delete was acknowledged;
// call after close.
func (f *fleet) finalRecall() (recall float64, stale int, err error) {
	live, ids, deleted := f.finalCorpus()
	gt := dataset.GroundTruth(live, f.c.queries, k, 0)
	for _, row := range gt {
		for j, local := range row {
			row[j] = ids[local]
		}
	}
	res, err := f.cl.SearchBatch(f.c.queries)
	if err != nil {
		return 0, 0, err
	}
	for _, row := range res.IDs {
		for _, id := range row {
			if deleted[id] {
				stale++
			}
		}
	}
	return dataset.Recall(gt, res.IDs, k), stale, nil
}

// storeDir gives each set-up its own durable directory.
func storeDir(root, workload string, rep int) string {
	return filepath.Join(root, fmt.Sprintf("%s-%d-%d", workload, os.Getpid(), rep))
}
