package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/durable"
	"drimann/internal/engine"
	"drimann/internal/topk"
	"drimann/internal/upmem"
)

const (
	setupReps      = 3    // set-ups per run; setup_s is their median
	offlineBatch   = 256  // queries per offline SearchBatch (the engines' scheduling batch)
	window         = 0.5  // seconds per latency sub-window
	warmWindows    = 2    // leading windows excluded as warm-up
	capacityStep   = 1.5  // seconds per capacity probe
	capacitySettle = 0.5  // leading seconds of a probe excluded from its p90
	capacityWindow = 0.25 // a probe's p90 is the median over windows this long
)

type runner struct {
	w       workload
	seed    int64
	seconds float64
	workdir string

	c     *corpus
	sys   system
	tr    *tracer
	refs  *engine.Result // offline answers every served read must equal; nil on the fleet, whose corpus changes
	rng   *rand.Rand
	reqs  atomic.Int64
	wrong atomic.Int64

	attempted, failed int
}

// setup builds the workload's system once and returns the wall time of the
// program's set-up calls.
func (r *runner) setup(rep int, tr *tracer, fs *countingFS) (*setupClock, error) {
	sys, clk, err := r.w.setup(r.c, setupEnv{dir: storeDir(r.workdir, r.w.name, rep), tr: tr, fs: fs})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.sys, r.tr, r.refs = sys, tr, nil
	r.rng = rand.New(rand.NewSource(r.seed))
	return clk, nil
}

// offline runs the query set through the offline SearchBatch in fixed
// batches: its simulated metrics and answers do not depend on timing.
func (r *runner) offline() (*engine.Result, error) {
	q := r.c.queries
	out := &engine.Result{}
	for lo := 0; lo < q.N; lo += offlineBatch {
		hi := min(lo+offlineBatch, q.N)
		res, err := r.sys.offline(dataset.U8Set{N: hi - lo, D: q.D, Data: q.Data[lo*q.D : hi*q.D]})
		if err != nil {
			return nil, fmt.Errorf("offline search: %w", err)
		}
		out.IDs = append(out.IDs, res.IDs...)
		out.Items = append(out.Items, res.Items...)
		out.Metrics.Merge(&res.Metrics)
	}
	return out, nil
}

// schedule lays out rate*dur requests: every writeEvery-th is a write of
// kind wk, the rest read queries drawn from the seeded stream.
func (r *runner) schedule(rate, dur float64, wk opKind) []op {
	ops := make([]op, int(rate*dur))
	writes := 0
	for i := range ops {
		if i%writeEvery == writeEvery-1 {
			ops[i] = op{kind: wk, i: writes}
			writes++
		} else {
			ops[i] = op{kind: opRead, i: r.rng.Intn(nQueries)}
		}
	}
	return ops
}

// phase runs ops open loop. Requests carry no deadline, which would make
// every waiting request select on a timer's channel; a run that hangs is
// stopped by main's watchdog instead.
func (r *runner) phase(rate float64, ops []op) []sample {
	smp := openLoop(context.Background(), rate, ops, r.issue)
	for _, s := range smp {
		r.attempted++
		if !s.ok {
			r.failed++
		}
	}
	return smp
}

type traceKey struct{}

type traceRef struct {
	tr          *tracer
	parent, req int64
}

// timed records a span named name, a child of the request span carried by
// ctx, from now until the returned func runs. Untraced contexts record
// nothing.
func timed(ctx context.Context, name string) func() {
	ref, ok := ctx.Value(traceKey{}).(traceRef)
	if !ok {
		return func() {}
	}
	start := time.Now()
	return func() { ref.tr.add(ref.tr.newID(), ref.parent, ref.req, name, start, time.Now(), 0) }
}

func (r *runner) issue(ctx context.Context, o op) error {
	if r.tr != nil {
		id, req := r.tr.newID(), r.reqs.Add(1)
		name := "read"
		if o.kind != opRead {
			name = "write"
		}
		ctx = context.WithValue(ctx, traceKey{}, traceRef{r.tr, id, req})
		start := time.Now()
		defer func() { r.tr.add(id, 0, req, name, start, time.Now(), 0) }()
	}
	if o.kind != opRead {
		return r.sys.write(ctx, o)
	}
	ids, items, err := r.sys.search(ctx, r.c.queries.Vec(o.i))
	if err == nil && r.refs != nil &&
		!(slices.Equal(ids, r.refs.IDs[o.i]) && slices.Equal(items, r.refs.Items[o.i])) {
		r.wrong.Add(1)
	}
	return err
}

// fixedPhase runs the workload's mix at its fixed rate for dur seconds.
// It also returns the rate at which the process would use every CPU if
// each request cost what it cost here: a first guess at capacity, low
// because launches batch more requests under heavier load.
func (r *runner) fixedPhase(dur float64) (phaseStats, float64) {
	ops := r.schedule(r.w.rate, dur, opWrite)
	cpu0, wall0 := processCPU(), time.Now()
	st := summarize(r.phase(r.w.rate, ops), window, warmWindows)
	used := (processCPU() - cpu0) / time.Since(wall0).Seconds()
	return st, r.w.rate * float64(runtime.GOMAXPROCS(0)) / max(used, 1e-3)
}

// processCPU is the process's user plus system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// capacity finds the highest open-loop rate the deployment keeps up with
// while its read p90 stays within latencyLimit. The fixed rate is known to
// pass (with p90 p90Fixed). Probes start at guess and climb in x1.25 steps
// until one fails; then each next probe sits at the bracket's capacity
// estimate, kept inside the middle of the bracket so that it always
// shrinks. The answer is the final bracket's estimate, so it moves
// continuously rather than in steps.
func (r *runner) capacity(budget, p90Fixed, guess float64) float64 {
	lo := probe{rate: r.w.rate, p90: p90Fixed, ok: true}
	var hi probe
	// The guess is capped: on an I/O-bound deployment CPU use says little,
	// and a first probe far past capacity would queue requests for seconds.
	rate := min(max(guess, 1.25*lo.rate), 4*lo.rate)
	end := time.Now().Add(time.Duration(budget * 1e9))
	for time.Until(end).Seconds() >= capacityStep {
		if p := r.runProbe(rate); p.ok {
			lo = p
		} else {
			hi = p
		}
		if hi.rate == 0 {
			rate = 1.25 * lo.rate
			continue
		}
		f := math.Log(estimate(lo, hi)/lo.rate) / math.Log(hi.rate/lo.rate)
		rate = lo.rate * math.Pow(hi.rate/lo.rate, min(max(f, 0.2), 0.8))
	}
	fmt.Fprintf(os.Stderr, "  capacity: guess %.0f q/s, pass %.0f q/s (p90 %.2f ms), fail %.0f q/s (p90 %.2f ms, answered %.0f/s)\n",
		guess, lo.rate, lo.p90*1e3, hi.rate, hi.p90*1e3, hi.tput)
	return estimate(lo, hi)
}

// probe is one capacity probe's outcome.
type probe struct {
	rate float64 // offered, requests/s
	p90  float64 // read p90 after settling, seconds
	tput float64 // requests answered per second after settling
	ok   bool
}

// keptUp is the share of the offered rate a probe must answer: below it
// the queue grows without bound, however long latency takes to show it.
const keptUp = 0.97

// runProbe offers rate for capacityStep seconds. The probe passes when no
// request fails, its read p90 (the median of window p90s after settling,
// so one scheduling hiccup does not decide it) is within latencyLimit, and
// it answers at least keptUp of the offered rate: no growing backlog.
func (r *runner) runProbe(rate float64) probe {
	smp := r.phase(rate, r.schedule(rate, capacityStep, opTempWrite))
	p := probe{rate: rate, ok: true,
		p90: summarize(smp, capacityWindow, int(capacitySettle/capacityWindow)).p90}
	answered := 0
	for _, s := range smp {
		p.ok = p.ok && s.ok
		if s.done >= capacitySettle && s.done < capacityStep {
			answered++
		}
	}
	p.tput = float64(answered) / (capacityStep - capacitySettle)
	p.ok = p.ok && p.p90 <= latencyLimit && p.tput >= keptUp*rate
	return p
}

// estimate is the capacity a passing probe lo and a failing probe hi
// imply, kept inside [lo, hi]: the rate hi actually sustained when it
// fell behind, or else where log p90 crosses latencyLimit between them.
// With no failing probe it is lo's rate.
func estimate(lo, hi probe) float64 {
	if hi.rate == 0 {
		return lo.rate
	}
	est := hi.tput
	if hi.tput >= keptUp*hi.rate {
		phi := hi.p90
		if math.IsInf(phi, 1) || math.IsNaN(phi) || phi <= latencyLimit {
			phi = 10 * latencyLimit // failed requests: far over the limit
		}
		plo := min(max(lo.p90, latencyLimit/100), latencyLimit)
		f := (math.Log(latencyLimit) - math.Log(plo)) / (math.Log(phi) - math.Log(plo))
		est = lo.rate * math.Pow(hi.rate/lo.rate, f)
	}
	return min(max(est, lo.rate), hi.rate)
}

// setupMedian sets the system up setupReps times, keeping the last one,
// and returns the median set-up time.
func (r *runner) setupMedian() (float64, error) {
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		if r.sys != nil {
			if err := r.sys.close(); err != nil {
				return 0, err
			}
			r.sys = nil
			runtime.GC()
		}
		clk, err := r.setup(rep, nil, nil)
		if err != nil {
			return 0, err
		}
		times = append(times, clk.total)
	}
	return median(times), nil
}

func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// untraced is the --trace 0 run: every end-to-end metric, tracing off.
func (r *runner) untraced() (report, error) {
	r.c = makeCorpus(r.w, r.seed)
	vals := map[string]float64{}
	var err error
	if vals["setup_s"], err = r.setupMedian(); err != nil {
		return report{}, err
	}
	vals["heap_mb"] = heapMB()
	off, err := r.offline()
	if err != nil {
		return report{}, err
	}
	vals["sim_qps"] = off.Metrics.QPS
	if r.w.readOnly {
		r.refs = off
		vals["recall_at_10"] = dataset.Recall(r.c.gt, off.IDs, k)
	}

	a, guess := r.fixedPhase(0.4 * r.seconds)
	vals["p50_ms"], vals["p90_ms"], vals["write_p50_ms"] = a.p50*1e3, a.p90*1e3, a.writeP50*1e3
	vals["max_qps"] = r.capacity(0.6*r.seconds, a.p90, guess)
	fmt.Fprintf(os.Stderr, "  fixed %g q/s: p50 %.3f p90 %.3f p99 %.3f ms over %d windows, generator late p50 %.3f ms\n",
		r.w.rate, a.p50*1e3, a.p90*1e3, a.p99*1e3, a.windows, a.lateP50*1e3)

	correct, err := r.finish(vals)
	if err != nil {
		return report{}, err
	}
	return report{Correct: correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: metricMap(endToEnd, vals)}, nil
}

// finish closes the system, checks its ledgers and answers, and for the
// fleet scores recall on the final live corpus and checks that no answer
// names a deleted point. It reports whether every
// check passed; a failed check is explained on stderr.
func (r *runner) finish(vals map[string]float64) (bool, error) {
	correct := true
	if n := r.wrong.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "  WRONG: %d served answers differ from the offline SearchBatch answers\n", n)
		correct = false
	}
	if err := r.sys.close(); err != nil {
		fmt.Fprintf(os.Stderr, "  WRONG: %v\n", err)
		correct = false
	}
	if f, ok := r.sys.(*fleet); ok {
		rec, stale, err := f.finalRecall()
		if err != nil {
			return false, err
		}
		if stale > 0 {
			fmt.Fprintf(os.Stderr, "  WRONG: %d final answers name a deleted point\n", stale)
			correct = false
		}
		vals["recall_at_10"] = rec
	}
	return correct, nil
}

// tracedPass is one pass of the traced run.
type tracedPass struct {
	off     *engine.Result
	fixed   phaseStats
	vals    map[string]float64
	correct bool
}

// pass sets the workload up (traced when tr is set), runs its offline
// batches and its fixed phase, and checks the answers.
func (r *runner) pass(dur float64, tr *tracer, fs *countingFS) (tracedPass, error) {
	p := tracedPass{vals: map[string]float64{}}
	clk, err := r.setup(0, tr, fs)
	if err != nil {
		return p, err
	}
	for l, s := range clk.layers {
		p.vals[l] = s
	}
	if p.off, err = r.offline(); err != nil {
		return p, err
	}
	if r.w.readOnly {
		r.refs = p.off
	}
	p.vals["core.cl_us_per_q"] = r.clMicros()
	p.fixed = r.measureLayers(dur, tr, fs, p.vals)
	p.correct, err = r.finish(p.vals)
	return p, err
}

// traced is the --trace 1 run: an untraced pass and a traced pass over
// identical set-ups and schedules. The traced pass must return the same
// answers and simulated metrics; the gap between the two passes' latency
// is the tracing overhead.
func (r *runner) traced() (report, error) {
	r.c = makeCorpus(r.w, r.seed)
	dur := 0.4 * r.seconds
	p0, err := r.pass(dur, nil, nil)
	if err != nil {
		return report{}, err
	}
	r.wrong.Store(0)
	tr := newTracer()
	p1, err := r.pass(dur, tr, &countingFS{FS: durable.OS{}, tr: tr})
	if err != nil {
		return report{}, err
	}
	correct := p0.correct && p1.correct
	if !sameResult(p0.off, p1.off) {
		fmt.Fprintln(os.Stderr, "  WRONG: traced offline answers or simulated metrics differ from untraced")
		correct = false
	}
	if p0.vals["recall_at_10"] != p1.vals["recall_at_10"] {
		fmt.Fprintf(os.Stderr, "  WRONG: traced final recall %v != untraced %v\n",
			p1.vals["recall_at_10"], p0.vals["recall_at_10"])
		correct = false
	}
	vals := p1.vals
	fillSim(vals, r.w, p1.off.Metrics)
	vals["trace.overhead_p50_ms"] = (p1.fixed.p50 - p0.fixed.p50) * 1e3
	vals["trace.overhead_p90_ms"] = (p1.fixed.p90 - p0.fixed.p90) * 1e3
	vals["trace.spans"] = float64(len(tr.spans))
	path := filepath.Join(r.workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", r.w.name, r.seed))
	if err := tr.write(path); err != nil {
		return report{}, err
	}
	fmt.Fprintf(os.Stderr, "  untraced p50 %.3f p90 %.3f ms, traced p50 %.3f p90 %.3f ms; %d spans in %s\n",
		p0.fixed.p50*1e3, p0.fixed.p90*1e3, p1.fixed.p50*1e3, p1.fixed.p90*1e3, len(tr.spans), path)
	return report{Correct: correct, Attempted: r.attempted, Failed: r.failed,
		Metrics: metricMap(perLayer, vals)}, nil
}

// measureLayers runs the fixed phase and fills the layer metrics it
// exposes: launch timing from the engine wrapper, the serve and cluster
// ledgers, the durable layer's counters, the Go runtime's allocation and
// GC share, and the generator's own health.
func (r *runner) measureLayers(dur float64, tr *tracer, fs *countingFS, vals map[string]float64) phaseStats {
	var syncs0, wal0 int64
	if fs != nil {
		syncs0, wal0 = fs.syncs.Load(), fs.walBytes.Load()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := cpuSeconds()
	start := time.Now()
	a, _ := r.fixedPhase(dur)
	wall := time.Since(start).Seconds()
	gc1, cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)

	reads := float64(a.sent[0])
	vals["runtime.alloc_b_per_q"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / reads
	if cpu1 > cpu0 {
		vals["runtime.gc_cpu_frac"] = (gc1 - gc0) / (cpu1 - cpu0)
	}
	vals["read.p99_ms"] = a.p99 * 1e3
	vals["loadgen.late_ms"] = a.lateP50 * 1e3
	for kind, name := range []string{"read", "write"} {
		vals["loadgen."+name+"_sent"] = float64(a.sent[kind])
		vals["loadgen."+name+"_ok"] = float64(a.ok[kind])
		vals["loadgen."+name+"_failed"] = float64(a.failed[kind])
	}

	st := r.sys.serveStats()
	vals["serve.batch_mean"] = st.MeanBatch
	vals["serve.batches"] = float64(st.Batches)
	vals["serve.failed"] = float64(st.Failed)
	vals["serve.canceled"] = float64(st.Canceled)
	vals["serve.rejected"] = float64(st.Rejected)
	if tr == nil {
		return a
	}
	for _, name := range []string{"core", "graph"} {
		launches := tr.durations(name+".SearchBatch", start)
		if len(launches) == 0 {
			continue
		}
		vals[name+".launch_ms"] = percentile(launches, 0.5) * 1e3
		vals["serve.queue_wait_ms"] = (a.p50 - percentile(launches, 0.5)) * 1e3
		if name == "core" {
			var busy float64
			for _, d := range launches {
				busy += d
			}
			vals["core.busy_share"] = busy / wall
		}
	}
	if f, ok := r.sys.(*fleet); ok {
		fst := f.srv.Stats()
		var batches, sims []float64
		for _, sh := range fst.Shards {
			t := sh.Total()
			batches = append(batches, t.MeanBatch)
			sims = append(sims, t.Sim.SimSeconds)
		}
		vals["cluster.shard_batch_mean"] = mean(batches)
		if m := mean(sims); m > 0 {
			vals["cluster.shard_sim_skew"] = slices.Max(sims) / m
		}
		if n := f.reads.Load(); n > 0 {
			vals["cluster.fanout_mean"] = float64(f.fanout.Load()) / float64(n)
		}
		writes := append(tr.durations("cluster.Insert", start), tr.durations("cluster.Delete", start)...)
		sort.Float64s(writes)
		vals["cluster.write_ms"] = percentile(writes, 0.5) * 1e3
		vals["durable.fsyncs"] = float64(fs.syncs.Load() - syncs0)
		vals["durable.fsync_ms"] = percentile(tr.durations("durable.Sync", start), 0.5) * 1e3
		if a.ok[1] > 0 {
			vals["durable.wal_bytes_per_write"] = float64(fs.walBytes.Load()-wal0) / float64(a.ok[1])
		}
	}
	return a
}

// cpuSeconds reads the Go runtime's GC and total CPU time estimates.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// clMicros times coarse locate (every CL stage the deployment runs per
// query: one per shard on a hash fleet) over the query set, in
// microseconds per query; the median of five passes.
func (r *runner) clMicros() float64 {
	var locs []*core.Locator
	switch s := r.sys.(type) {
	case *single:
		if e, ok := unwrap(s.eng).(*core.Engine); ok {
			locs = append(locs, e.Locator())
		}
	case *fleet:
		for _, sh := range s.cl.Shards() {
			locs = append(locs, sh.IVF().Locator())
		}
	}
	if len(locs) == 0 {
		return 0
	}
	q := r.c.queries
	out := make([]topk.Item[uint32], q.N*locs[0].NProbe())
	counts := make([]int, q.N)
	var times []float64
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		for _, l := range locs {
			l.LocateBatch(q, 0, q.N, out, counts)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times) / float64(q.N) * 1e6
}

func unwrap(e engine.Engine) engine.Engine {
	switch w := e.(type) {
	case timedIVF:
		return w.inner
	case timedReplicable:
		return w.inner
	case *timedEngine:
		return w.inner
	}
	return e
}

// fillSim copies the offline batches' simulated metrics into the layer
// metrics of the engine that produced them.
func fillSim(vals map[string]float64, w workload, m engine.Metrics) {
	if w.name == "graph-read" {
		var dma uint64
		for _, n := range m.PhaseDMACount {
			dma += n
		}
		vals["graph.dma_per_q"] = float64(dma) / float64(m.Queries)
		vals["graph.sim_pim_s"] = m.PIMSeconds
		return
	}
	vals["core.sim_host_s"] = m.HostSeconds
	vals["core.sim_pim_s"] = m.PIMSeconds
	vals["core.sim_xfer_s"] = m.XferSeconds
	for p := upmem.Phase(0); p < upmem.NumPhases; p++ {
		vals["core.sim_phase."+p.String()+"_s"] = m.PhaseSeconds[p]
	}
	vals["core.imbalance"] = m.AvgImbalance()
	vals["core.lut_reuse_ratio"] = ratio(m.LUTReuses, m.LUTBuilds+m.LUTReuses)
	vals["core.lock_skip_ratio"] = ratio(m.LockSkipped, m.LockAcquired+m.LockSkipped)
	vals["core.points_per_q"] = float64(m.PointsScanned) / float64(m.Queries)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// sameResult reports whether two offline passes agree bit for bit:
// answers, scores and every simulated metric.
func sameResult(a, b *engine.Result) bool {
	if len(a.IDs) != len(b.IDs) || a.Metrics != b.Metrics {
		return false
	}
	for i := range a.IDs {
		if !slices.Equal(a.IDs[i], b.IDs[i]) || !slices.Equal(a.Items[i], b.Items[i]) {
			return false
		}
	}
	return true
}
