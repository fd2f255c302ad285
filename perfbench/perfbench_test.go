package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"drimann/internal/core"
	"drimann/internal/dataset"
	"drimann/internal/durable"
	"drimann/internal/engine"
	"drimann/internal/graph"
	"drimann/internal/testutil"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}, {1, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	// A failed request is +Inf and must land above the limit.
	withFail := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, math.Inf(1)}
	if !math.IsInf(percentile(withFail, 0.95), 1) {
		t.Error("failure did not count as missing the limit")
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestSummarizeDueTimeLatency pins how a phase is scored: latency runs from
// the due time (so generator lateness counts), failures read +Inf, writes
// are scored apart from reads, warm-up windows are dropped, and each wall
// figure is the median over the remaining windows.
func TestSummarizeDueTimeLatency(t *testing.T) {
	var smp []sample
	for w := 0; w < 4; w++ {
		for i := 0; i < 10; i++ {
			due := float64(w) + float64(i)/10
			lat := 0.001 * float64(w+1) // window w: every read takes (w+1) ms
			if w == 0 {
				lat = 1 // warm-up window: slow, must be ignored
			}
			smp = append(smp, sample{due: due, sent: due + 0.0005, done: due + lat, ok: true})
		}
	}
	smp = append(smp, sample{due: 3.5, sent: 3.6, done: 3.61, write: true, ok: true})
	smp[35].ok = false // one failed read in window 3
	st := summarize(smp, 1, 1)
	if st.windows != 3 {
		t.Fatalf("windows = %d, want 3 after dropping warm-up", st.windows)
	}
	if math.Abs(st.p50-0.003) > 1e-9 {
		t.Errorf("p50 = %v, want median of window p50s 3ms", st.p50)
	}
	if math.Abs(st.writeP50-0.11) > 1e-9 {
		t.Errorf("write p50 = %v, want 110ms from its due time", st.writeP50)
	}
	if st.sent != [2]int{40, 1} || st.failed != [2]int{1, 0} || st.ok != [2]int{39, 1} {
		t.Errorf("ledger sent=%v ok=%v failed=%v", st.sent, st.ok, st.failed)
	}
	if math.Abs(st.lateP50-0.0005) > 1e-9 {
		t.Errorf("lateness p50=%v, want 0.5ms", st.lateP50)
	}
	if (sample{due: 1, done: 2}).latency() != math.Inf(1) {
		t.Error("a failed request must read +Inf")
	}
}

// TestOpenLoopDoesNotWaitForAnswers checks that a stalled request delays
// neither the schedule nor its successors: the generator is open loop.
func TestOpenLoopDoesNotWaitForAnswers(t *testing.T) {
	ops := make([]op, 10)
	for i := range ops {
		ops[i] = op{kind: opRead, i: i}
	}
	ops[9].kind = opWrite
	boom := errors.New("boom")
	smp := openLoop(context.Background(), 200, ops, func(_ context.Context, o op) error {
		switch o.i {
		case 0:
			time.Sleep(150 * time.Millisecond)
		case 3:
			return boom
		}
		return nil
	})
	for i, s := range smp {
		if want := float64(i) / 200; s.due != want {
			t.Errorf("op %d due %v, want %v", i, s.due, want)
		}
		if s.sent < s.due || s.done < s.sent {
			t.Errorf("op %d: due %v sent %v done %v out of order", i, s.due, s.sent, s.done)
		}
	}
	if late := smp[5].late(); late > 0.1 {
		t.Errorf("op 5 sent %.0f ms late behind a stalled op 0", late*1e3)
	}
	if smp[0].latency() < 0.15 {
		t.Errorf("stalled op latency %v < its stall", smp[0].latency())
	}
	if smp[3].ok || !smp[4].ok || !smp[9].write || smp[8].write {
		t.Error("outcome or kind recorded against the wrong request")
	}
}

func TestCapacityEstimate(t *testing.T) {
	lo := probe{rate: 1000, p90: 0.01, ok: true}
	if got := estimate(lo, probe{}); got != 1000 {
		t.Errorf("no failing probe: got %v, want the best passing rate", got)
	}
	// hi kept up but its p90 is 1s: the 100ms limit sits half-way between
	// 10ms and 1s in log space.
	if got := estimate(lo, probe{rate: 4000, p90: 1, tput: 4000}); math.Abs(got-2000) > 1e-6 {
		t.Errorf("latency crossing %v, want 2000", got)
	}
	// hi fell behind: it sustained 1100/s, which is the estimate.
	if got := estimate(lo, probe{rate: 1200, p90: 0.05, tput: 1100}); got != 1100 {
		t.Errorf("fell behind: got %v, want the rate it sustained", got)
	}
	if got := estimate(lo, probe{rate: 1200, p90: 0.05, tput: 900}); got != 1000 {
		t.Errorf("estimate %v left the bracket", got)
	}
	if got := estimate(lo, probe{rate: 1200, p90: math.Inf(1), tput: 1200}); got <= 1000 || got >= 1200 {
		t.Errorf("failed requests: got %v, want inside (1000, 1200)", got)
	}
}

type bareEngine struct{}

func (bareEngine) SearchBatch(q dataset.U8Set) (*engine.Result, error) {
	return &engine.Result{IDs: make([][]int32, q.N), Metrics: engine.Metrics{Queries: q.N}}, nil
}
func (bareEngine) K() int        { return 1 }
func (bareEngine) Dim() int      { return 4 }
func (bareEngine) MaxBatch() int { return 8 }

type mutableOnly struct{ bareEngine }

func (mutableOnly) Insert(dataset.U8Set, []int32) error { return nil }
func (mutableOnly) Delete([]int32) error                { return nil }
func (mutableOnly) Compact() error                      { return nil }

// TestWrapperForwardsCapabilities: serve and cluster pick their code path
// by type assertion, so the timing wrapper must expose exactly the wrapped
// engine's capabilities, time every launch, and change no answer.
func TestWrapperForwardsCapabilities(t *testing.T) {
	ix, s := testutil.Fixture(t, testutil.FixtureSpec{Name: "wrap", N: 1500, D: 16, Queries: 8,
		NumClusters: 8, Seed: 3, Noise: 10, NList: 16, M: 4, CB: 16, BuildSeed: 2})
	copts := core.DefaultOptions()
	copts.NumDPUs = 8
	ivfEng, err := core.New(ix, dataset.U8Set{}, copts)
	if err != nil {
		t.Fatal(err)
	}
	gopts := graph.DefaultOptions()
	gopts.NumDPUs = 8
	graphEng, err := graph.New(s.Base, gopts)
	if err != nil {
		t.Fatal(err)
	}
	for name, eng := range map[string]engine.Engine{"ivf": ivfEng, "graph": graphEng, "bare": bareEngine{}} {
		tr := newTracer()
		w, err := wrapEngine(eng, tr, "launch")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := capabilities(w), capabilities(eng); !slices.Equal(got, want) {
			t.Errorf("%s: wrapper capabilities %v, engine has %v", name, got, want)
		}
		if unwrap(w) != eng {
			t.Errorf("%s: unwrap did not return the engine", name)
		}
		if name == "bare" {
			continue
		}
		q := dataset.U8Set{N: s.Queries.N, D: s.Queries.D, Data: s.Queries.Data}
		direct, err := eng.SearchBatch(q)
		if err != nil {
			t.Fatal(err)
		}
		timed, err := w.SearchBatch(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(direct, timed) {
			t.Errorf("%s: wrapped SearchBatch changed the result", name)
		}
		if ps, ok := w.(engine.ProbedSearcher); ok {
			if _, err := ps.SearchBatchProbed(q, ivfEng.Locator().Probes(q), true); err != nil {
				t.Fatal(err)
			}
		}
		want := 1
		if name == "ivf" {
			want = 2
		}
		if got := len(tr.durations("launch", tr.t0)); got != want {
			t.Errorf("%s: %d launch spans, want %d", name, got, want)
		}
	}
	if _, err := wrapEngine(mutableOnly{}, newTracer(), "launch"); err == nil {
		t.Error("a capability set no wrapper forwards must be refused, not dropped")
	}
}

func TestCountingFS(t *testing.T) {
	tr := newTracer()
	fs := &countingFS{FS: durable.NewMemFS(durable.FaultPlan{}), tr: tr}
	for _, name := range []string{"d/wal-00000001", "d/snap-00000001"} {
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := fs.OpenAppend("d/wal-00000001")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	if got := fs.walBytes.Load(); got != 15 {
		t.Errorf("WAL bytes = %d, want 15 (snapshot bytes excluded)", got)
	}
	if got := fs.syncs.Load(); got != 2 {
		t.Errorf("fsyncs = %d, want 2", got)
	}
	if got := len(tr.durations("durable.Sync", tr.t0)); got != 2 {
		t.Errorf("%d fsync spans, want 2", got)
	}
}

// TestBenchmarkSpecMatchesCode keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkSpecMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !slices.Equal(names, specNames) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", names, specNames)
	}
	toDefs := func(ms []struct{ Name, Unit string }) []metricDef {
		var out []metricDef
		for _, m := range ms {
			out = append(out, metricDef{m.Name, m.Unit})
		}
		return out
	}
	if got := toDefs(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v != code %v", got, endToEnd)
	}
	if got := toDefs(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v != code %v", got, perLayer)
	}
}
