// Command perfbench is the repository's benchmark. One run sets up one
// workload (a deployment of the program plus a traffic mix made from
// --seed), drives it with a single open-loop generator for about --seconds,
// checks every answer, and prints one JSON line:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (wall latency and
// capacity through serve/cluster, simulated QPS and recall from fixed
// offline batches, set-up time, heap). With --trace 1 the run instead
// compares an untraced pass with a pass whose calls into each layer are
// timed from outside, and prints the per-layer metrics; spans are written
// to --workdir as JSON lines. The command exits non-zero on a wrong answer
// or an unbalanced server ledger.
//
// Run it from the repository root through perfbench/run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"max_qps", "q/s"},
	{"write_p50_ms", "ms"},
	{"sim_qps", "q/s"},
	{"recall_at_10", "ratio"},
	{"heap_mb", "MB"},
}

// perLayer are the traced run's metrics (--trace 1), named after the module
// whose calls they time or count. A layer a workload leaves idle reads 0.
var perLayer = []metricDef{
	{"ivf.build_s", "s"},
	{"core.new_s", "s"},
	{"cluster.new_s", "s"},
	{"graph.build_s", "s"},
	{"core.launch_ms", "ms"},
	{"core.busy_share", "ratio"},
	{"core.cl_us_per_q", "us"},
	{"serve.batch_mean", "queries"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.batches", "count"},
	{"serve.failed", "count"},
	{"serve.canceled", "count"},
	{"serve.rejected", "count"},
	{"core.sim_host_s", "s"},
	{"core.sim_pim_s", "s"},
	{"core.sim_xfer_s", "s"},
	{"core.sim_phase.CL_s", "s"},
	{"core.sim_phase.RC_s", "s"},
	{"core.sim_phase.LC_s", "s"},
	{"core.sim_phase.DC_s", "s"},
	{"core.sim_phase.TS_s", "s"},
	{"core.sim_phase.Others_s", "s"},
	{"core.imbalance", "ratio"},
	{"core.lut_reuse_ratio", "ratio"},
	{"core.lock_skip_ratio", "ratio"},
	{"core.points_per_q", "count"},
	{"cluster.fanout_mean", "shards"},
	{"cluster.shard_batch_mean", "queries"},
	{"cluster.shard_sim_skew", "ratio"},
	{"cluster.write_ms", "ms"},
	{"durable.fsyncs", "count"},
	{"durable.fsync_ms", "ms"},
	{"durable.wal_bytes_per_write", "B"},
	{"graph.launch_ms", "ms"},
	{"graph.dma_per_q", "count"},
	{"graph.sim_pim_s", "s"},
	{"runtime.alloc_b_per_q", "B"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"loadgen.late_ms", "ms"},
	{"loadgen.read_sent", "count"},
	{"loadgen.read_ok", "count"},
	{"loadgen.read_failed", "count"},
	{"loadgen.write_sent", "count"},
	{"loadgen.write_ok", "count"},
	{"loadgen.write_failed", "count"},
	{"read.p99_ms", "ms"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.overhead_p90_ms", "ms"},
	{"trace.spans", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: ivf-hot, fleet-rw or graph-read")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/perfbench", "directory for durable state and trace output")
	flag.Parse()

	w, err := findWorkload(*name)
	// The fleet's insert pool and delete list cover fixed phases of up to
	// two minutes.
	if err == nil && (*seconds <= 0 || *seconds > 120) {
		err = fmt.Errorf("--seconds must be in (0, 120]")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d seconds %g trace %d GOMAXPROCS %d\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	// A hung server must not hang the benchmark: fail the run well inside
	// the three minutes a run may take.
	limit := time.Duration((*seconds + 120) * float64(time.Second))
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run did not finish within %s\n", limit)
		os.Exit(1)
	})

	r := &runner{w: w, seed: *seed, seconds: *seconds, workdir: *workdir}
	var rep report
	if *trace == 1 {
		rep, err = r.traced()
	} else {
		rep, err = r.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

// metricMap converts raw values to the report's map, in the units of defs;
// every defined metric is present.
func metricMap(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
