// Command perfbench is the ArchIS benchmark. For one workload it
// builds the synthetic employee history (1,600 employees over 17
// years) into the compressed layout with a WAL, measures the workload,
// checks every answer against a plain-layout build of the same
// history, and checks that recovery reproduces the live system. The
// seed drives the writer's script.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload read-warm --seed 1 --seconds 10 --trace 0
//
// --workload is read-warm, read-cold or all. The report
// goes to standard output: one row of end-to-end metrics per workload,
// with the sample count next to each timing, and with --trace 1 the
// per-layer metrics of a separate traced pass. The last line is one
// JSON object, {"correct", "attempted", "failed", "metrics"}, whose
// metrics are the end-to-end ones, or with --trace 1 the per-layer
// ones. A wrong answer fails the run: it exits non-zero and prints no
// JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// endToEnd are the gated metrics a user of the system sees. Every
// workload reports all of them; everything else a run measures is
// per-layer.
var endToEnd = []string{
	"setup_s", "storage_ratio", "read_ops_per_s", "read_p99_ms",
	"q1_p50_ms", "q2_p50_ms", "q3_p50_ms", "q4_p50_ms", "q5_p50_ms", "q6_p50_ms", "xq1_p50_ms",
	"write_ops_per_s", "write_p50_ms", "recover_s",
}

// ungated are user-visible timings every run measures and the report
// row prints, but which are too unsteady to gate: over five runs of
// each workload the spread of write_p99_ms between its quartiles was
// 0.11-0.18 of its median, against 0.25 for the largest bound. They
// are per-layer metrics in the result line.
var ungated = []string{"write_p99_ms"}

func main() {
	// One P: the program's own goroutines, its scan workers (Workers
	// defaults to GOMAXPROCS, so queries run serially) and the garbage
	// collector then share one CPU of the two-CPU host, and the timings
	// do not depend on how the host schedules a second one. With two,
	// morsel-parallel queries and the collector's dedicated worker
	// competed for the second CPU with whatever else ran there, and
	// per-query medians moved by up to 60% between otherwise equal runs.
	runtime.GOMAXPROCS(1)
	c := defaultConfig()
	name := flag.String("workload", "", "read-warm, read-cold or all")
	flag.Int64Var(&c.seed, "seed", c.seed, "seed of the writer's script")
	secs := flag.Float64("seconds", c.seconds.Seconds(), "length of the measured phase, in seconds")
	trace := flag.Int("trace", 0, "1: add the traced pass and report the per-layer metrics")
	flag.StringVar(&c.workdir, "workdir", c.workdir, "directory that holds each run's WAL and snapshots")
	flag.Parse()
	c.seconds = time.Duration(*secs * float64(time.Second))
	c.trace = *trace == 1
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := lookupWorkload(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (read-warm, read-cold or all)\n", *name)
		os.Exit(2)
	}
	if err := benchmark(os.Stdout, c, ws); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// benchmark runs the workloads in turn, prints each one's report and
// ends with the JSON line. With several workloads the JSON metric
// names carry the workload as a prefix.
func benchmark(w io.Writer, c config, ws []workload) error {
	out := line{Correct: true, Metrics: map[string]metric{}}
	for _, wl := range ws {
		res, err := runWorkload(c, wl)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		res.print(w, wl.name, c)
		out.Attempted += res.attempted
		out.Failed += res.failed
		for _, n := range res.reported(c.trace) {
			key := n
			if len(ws) > 1 {
				key = wl.name + "/" + n
			}
			out.Metrics[key] = res.vals[n]
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// line is the final JSON line.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// results are one workload run's metrics, in the order measured.
type results struct {
	header            string
	vals              map[string]metric
	samples           map[string]int
	order             []string
	attempted, failed int64
}

func newResults() *results {
	return &results{vals: map[string]metric{}, samples: map[string]int{}}
}

func (o *results) add(name string, v float64, unit string, samples int) {
	if _, ok := o.vals[name]; !ok {
		o.order = append(o.order, name)
	}
	o.vals[name] = metric{Value: v, Unit: unit}
	o.samples[name] = samples
}

// reported lists the metrics the JSON line carries: the end-to-end
// ones, or with tracing every other metric.
func (o *results) reported(trace bool) []string {
	if !trace {
		return endToEnd
	}
	isE2E := map[string]bool{}
	for _, n := range endToEnd {
		isE2E[n] = true
	}
	var out []string
	for _, n := range o.order {
		if !isE2E[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// print writes the human report: the run's header, one row with every
// end-to-end metric and the ungated timings, and with tracing the
// per-layer metrics (per-query ones as a table).
func (o *results) print(w io.Writer, name string, c config) {
	fmt.Fprintf(w, "== %s, seed %d, %v measured ==\n%s\n", name, c.seed, c.seconds, o.header)
	var row []string
	for _, n := range slices.Concat(endToEnd, ungated) {
		row = append(row, o.cell(n))
	}
	share := 0.0
	if o.attempted > 0 {
		share = float64(o.failed) / float64(o.attempted)
	}
	row = append(row, fmt.Sprintf("failed_ops_share=%g share (%d of %d)", share, o.failed, o.attempted))
	fmt.Fprintf(w, "%s | %s\n", name, strings.Join(row, " | "))
	if !c.trace {
		return
	}
	perQuery := map[string]bool{}
	var cols []string
	for _, n := range o.order {
		if base, ok := strings.CutSuffix(n, ".q1"); ok {
			cols = append(cols, base)
		}
	}
	fmt.Fprintf(w, "%-5s", "query")
	for _, col := range cols {
		fmt.Fprintf(w, " %s", col)
	}
	fmt.Fprintln(w)
	for _, q := range suite {
		fmt.Fprintf(w, "%-5s", q.name)
		for _, col := range cols {
			n := col + "." + q.name
			perQuery[n] = true
			fmt.Fprintf(w, " %*.4g", len(col), o.vals[n].Value)
		}
		fmt.Fprintln(w)
	}
	for _, n := range o.reported(true) {
		if !perQuery[n] && !slices.Contains(ungated, n) {
			fmt.Fprintln(w, o.cell(n))
		}
	}
}

func (o *results) cell(n string) string {
	m := o.vals[n]
	s := fmt.Sprintf("%s=%.6g %s", n, m.Value, m.Unit)
	if k := o.samples[n]; k > 1 {
		s += fmt.Sprintf(" (n=%d)", k)
	}
	return s
}
