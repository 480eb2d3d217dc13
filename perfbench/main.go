package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/slash-stream/slash/internal/cluster"
)

// metricDef is one reported metric; BENCHMARK.json lists the same names and
// units.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"throughput_rec_s", "rec/s"},
	{"emit_latency_p50_ms", "ms"},
	{"emit_latency_p95_ms", "ms"},
	{"cpu_ns_per_rec", "ns"},
	{"alloc_bytes_per_rec", "B"},
	{"heap_peak_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"core.source_busy_frac", "fraction"},
	{"core.merge_busy_frac", "fraction"},
	{"core.merge_backlog_slots_max", "count"},
	{"core.flow_fill_ns_per_rec", "ns"},
	{"core.ops_ns_per_rec", "ns"},
	{"core.emit_rows", "count"},
	{"window.assign_ns_per_rec", "ns"},
	{"ssb.update_ns_per_rec", "ns"},
	{"ssb.state_bytes_peak", "B"},
	{"ssb.flush_ns_per_rec", "ns"},
	{"ssb.recs_per_flush", "count"},
	{"ssb.chunk_encode_ns", "ns"},
	{"ssb.chunk_decode_ns", "ns"},
	{"ssb.chunk_fill_frac", "fraction"},
	{"ssb.shipped_bytes_per_rec", "B"},
	{"ssb.merge_ns_per_chunk", "ns"},
	{"ssb.merge_ns_per_rec", "ns"},
	{"ssb.trigger_ns_per_row", "ns"},
	{"ssb.trigger_ns_per_rec", "ns"},
	{"channel.acquire_wait_ns_per_slot", "ns"},
	{"channel.credit_stall_frac", "fraction"},
	{"channel.post_ns_per_slot", "ns"},
	{"channel.poll_hit_frac", "fraction"},
	{"channel.slots", "count"},
	{"channel.transfer_ns_per_chunk", "ns"},
	{"rdma.tx_bytes_per_rec", "B"},
	{"rdma.tx_msgs_per_rec", "count"},
	{"sched.idle_rounds_per_rec", "count"},
	{"sched.ready_step_frac", "fraction"},
	{"netfab.transfer_ns_per_chunk", "ns"},
	{"netfab.allocs_per_chunk", "count"},
	{"cluster.bootstrap_s", "s"},
	{"cluster.finish_s", "s"},
	{"recovery.append_ns_per_rec", "ns"},
	{"recovery.journal_bytes_per_rec", "B"},
	{"recovery.appends", "count"},
	{"trace.cpu_ns_per_rec", "ns"},
	{"trace.layer_sum_ns_per_rec", "ns"},
	{"trace.unaccounted_ns_per_rec", "ns"},
	{"trace.overhead_frac", "fraction"},
	{"workload.pacer_late_p99_ms", "ms"},
	{"workload.pacer_backlog_max_rec", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: ysb, ysb-paced, nb8 or ysb-netfab")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	commit := flag.String("commit", "unknown", "commit the binary was built from, for the result header")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *commit); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, d time.Duration, trace bool, commit string) error {
	s, err := lookup(name)
	if err != nil {
		return err
	}
	if d <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	fmt.Printf("# perfbench commit=%s go=%s GOMAXPROCS=%d nproc=%d\n",
		commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Printf("# workload=%s seed=%d held_out_seed=%d nodes=%d threads_per_node=%d records_per_flow=%d ysb_paced_offered_rec_s=%d seconds=%g trace=%v\n",
		s.name, seed, heldOutSeed, numNodes, threads, s.records, pacedRate, d.Seconds(), trace)
	in, err := build(s, seed)
	if err != nil {
		return err
	}
	fmt.Printf("# input: %d records, %d windows, %d result rows, generated and evaluated in %.2fs\n",
		in.total(), in.ref.wins, in.ref.rows, in.gen.Seconds())

	var res result
	if trace {
		res = traced(in, d)
	} else {
		res = untraced(in, d)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// measure runs the workload repeatedly for d after one discarded warm-up run
// per mode (traced or not): the first engine run in a process is markedly
// slower than later ones. The warm-ups are still checked against the
// reference and reported. With two modes the runs alternate, so drift during
// the measurement hits both alike.
func measure(in *input, d time.Duration, modes ...bool) (warm []pass, runs [][]pass) {
	var want string
	var sink *checkSink
	if in.spec.cluster {
		want = cluster.RenderRows(in.ref.clusterRows())
	} else {
		sink = newCheckSink(in.ref)
	}
	once := func(traced bool) pass {
		if in.spec.cluster {
			return runCluster(in, want, traced)
		}
		return runInProc(in, sink, traced)
	}
	runs = make([][]pass, len(modes))
	for _, m := range modes {
		warm = append(warm, once(m))
	}
	deadline := time.Now().Add(d)
	for len(runs[0]) < 3 || time.Now().Before(deadline) {
		for i, m := range modes {
			p := once(m)
			runs[i] = append(runs[i], p)
			if p.err == errHung {
				return warm, runs
			}
		}
		if time.Now().After(deadline.Add(d)) {
			break
		}
	}
	return warm, runs
}

// tally counts attempts and failures over the warm-up and the measured runs
// and reports them; a failure's first error is printed.
func tally(res *result, label string, warm pass, runs []pass) {
	all := append([]pass{warm}, runs...)
	for i, p := range all {
		res.Attempted++
		if p.failed() {
			res.Failed++
		}
		if p.err != nil {
			res.Correct = false
			fmt.Printf("# %s run %d FAILED: %v\n", label, i, p.err)
		} else if p.overCapacity {
			fmt.Printf("# %s run %d over capacity: last record handed over %v late, backlog reached %d records\n",
				label, i, p.endLag, p.backlogMax)
		}
	}
	if warm.err == nil {
		fmt.Printf("# %s warm-up run (discarded): %.0f rec/s, setup %.4fs\n",
			label, rate(warm), warm.setup.Seconds())
	}
}

func rate(p pass) float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.records) / p.elapsed.Seconds()
}

// good returns the runs that count as samples.
func good(runs []pass) []pass {
	var out []pass
	for _, p := range runs {
		if !p.failed() {
			out = append(out, p)
		}
	}
	return out
}

// medianOf returns the median of f over runs.
func medianOf(runs []pass, f func(p pass) float64) float64 {
	xs := make([]float64, len(runs))
	for i, p := range runs {
		xs[i] = f(p)
	}
	return median(xs)
}

// endToEndMetrics computes the end-to-end metrics over the good runs.
func endToEndMetrics(runs []pass) (map[string]float64, int) {
	var lat []float64
	for _, p := range runs {
		lat = append(lat, p.lat...)
	}
	m := map[string]float64{
		"throughput_rec_s":    medianOf(runs, rate),
		"emit_latency_p50_ms": quantile(lat, 0.50),
		"emit_latency_p95_ms": quantile(lat, 0.95),
		"cpu_ns_per_rec": medianOf(runs, func(p pass) float64 {
			return float64(p.cpu.Nanoseconds()) / float64(p.records)
		}),
		"alloc_bytes_per_rec": medianOf(runs, func(p pass) float64 {
			return float64(p.alloc) / float64(p.records)
		}),
		"heap_peak_mb": medianOf(runs, func(p pass) float64 { return float64(p.heapPeak) / (1 << 20) }),
		"setup_s":      medianOf(runs, func(p pass) float64 { return p.setup.Seconds() }),
	}
	return m, len(lat)
}

// untraced is the --trace 0 run. A failed run still prints a result, with
// the failures counted, so the failure is reported rather than hidden.
func untraced(in *input, d time.Duration) result {
	res := result{Correct: true}
	warms, all := measure(in, d, false)
	runs := all[0]
	tally(&res, "measured", warms[0], runs)
	ok := good(runs)
	m, samples := endToEndMetrics(ok)
	fmt.Printf("# %d measured runs, %d counted, %d latency samples\n", len(runs), len(ok), samples)
	xs := make([]float64, len(ok))
	for i, p := range ok {
		xs[i] = rate(p)
	}
	fmt.Printf("# throughput quartiles over runs: q1 %.0f, median %.0f, q3 %.0f rec/s\n",
		quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75))
	res.Metrics = pick(endToEnd, m)
	printTable("end-to-end (medians over runs; latency percentiles over all samples)", endToEnd, m)
	return res
}

// pick assembles the reported metrics; a missing or non-finite value is 0.
func pick(defs []metricDef, m map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

// printTable prints the metrics a run measured and names the ones it did not.
func printTable(title string, defs []metricDef, m map[string]float64) {
	fmt.Printf("# %s\n", title)
	var missing []string
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			fmt.Printf("#   %-34s %16.4f %s\n", d.name, v, d.unit)
		} else {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 {
		fmt.Printf("#   not on this workload's path (reported as 0): %s\n", strings.Join(missing, ", "))
	}
}
