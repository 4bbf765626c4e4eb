package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"archis/internal/obs"
	"archis/internal/sqlengine"
)

// The traced pass gives the per-layer split. It runs after the timed
// read phase and before the write phase, so the global storage
// counters move only for the one query being traced. It cycles the
// suite in the timed loop's order, so each query meets the caches in
// the state the timed loop left them; cycles alternate untraced and
// traced, and the ratio of their medians is the tracing overhead.
// Spans come only from the program's own tracer (Engine.ExecTraced,
// System.QueryTraced); the benchmark adds none inside the program.

// operatorClass maps a span name to the operator whose self time it
// counts toward.
func operatorClass(name string) string {
	switch {
	case name == "scan" || name == "morsel-fanout":
		return "scan"
	case name == "aggregate" || name == "agg-merge":
		return "aggregate"
	case strings.HasPrefix(name, "join:"):
		return "join"
	}
	return name // filter, project, parse, translate, ...
}

var reportedClasses = []string{"scan", "filter", "aggregate", "join", "project"}

// tracedRun is one traced execution of a query.
type tracedRun struct {
	wall         time.Duration
	self         map[string]int64 // operator class → self time, ns
	unattributed int64            // root self time, ns
	coverage     float64          // share of the root covered by its children
	translate    int64            // translate span, ns (XQ1 only)

	rowsScanned, pagesSkipped, pagesDecoded, inflated int64
	colRows                                           int64
}

func (r *run) tracePass(expect map[string]string) error {
	sys := r.env.Sys
	texts := r.texts()
	runtime.GC()
	untraced := make([][]time.Duration, len(suite))
	traced := make([][]tracedRun, len(suite))
	sqls := make([]string, len(suite))
	for cycle := range 2 * r.c.cycles {
		for i, q := range suite {
			if cycle%2 == 0 {
				ans, sql, d, err := q.exec(sys, texts[i])
				if err != nil {
					return fmt.Errorf("traced pass: %s: %w", q.name, err)
				}
				if ans != expect[q.name] {
					return fmt.Errorf("traced pass: %s answer %q, expected %q", q.name, ans, expect[q.name])
				}
				untraced[i] = append(untraced[i], d)
				sqls[i] = sql
				continue
			}
			s0, z0 := sys.DB.Stats(), r.inflated()
			ans, qt, d, err := r.traced(q, texts[i])
			s1, z1 := sys.DB.Stats(), r.inflated()
			if err != nil {
				return fmt.Errorf("traced pass: %s: %w", q.name, err)
			}
			if ans != expect[q.name] {
				return fmt.Errorf("traced pass: %s answer %q, expected %q", q.name, ans, expect[q.name])
			}
			tr := analyse(qt.Root)
			tr.wall = d
			tr.colRows = s1.ColBatchRows - s0.ColBatchRows
			tr.rowsScanned = s1.RowsBorrowed - s0.RowsBorrowed + s1.RowsCopied - s0.RowsCopied + tr.colRows
			tr.pagesSkipped = s1.PagesSkipped - s0.PagesSkipped
			tr.pagesDecoded = s1.BlockReads - s0.BlockReads
			tr.inflated = z1 - z0
			traced[i] = append(traced[i], tr)
		}
	}
	var colRows, scanned int64
	for i, q := range suite {
		ts := traced[i]
		med := func(f func(tracedRun) float64) float64 {
			xs := make([]float64, len(ts))
			for k, t := range ts {
				xs[k] = f(t)
			}
			return medianFloat(xs)
		}
		n := len(ts)
		parse, err := parseTime(sqls[i])
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		r.out.add("sqlengine.parse_us."+q.name, us(parse), "us", 21)
		r.out.add("sqlengine.unattributed_us."+q.name, med(func(t tracedRun) float64 { return float64(t.unattributed) / 1e3 }), "us", n)
		for _, class := range reportedClasses {
			r.out.add("sqlengine."+class+"_us."+q.name, med(func(t tracedRun) float64 { return float64(t.self[class]) / 1e3 }), "us", n)
		}
		r.out.add("sqlengine.rows_scanned."+q.name, med(func(t tracedRun) float64 { return float64(t.rowsScanned) }), "count", n)
		r.out.add("relstore.pages_skipped."+q.name, med(func(t tracedRun) float64 { return float64(t.pagesSkipped) }), "count", n)
		r.out.add("relstore.pages_decoded."+q.name, med(func(t tracedRun) float64 { return float64(t.pagesDecoded) }), "count", n)
		r.out.add("blockzip.blocks_inflated."+q.name, med(func(t tracedRun) float64 { return float64(t.inflated) }), "count", n)
		r.out.add("obs.span_coverage."+q.name, med(func(t tracedRun) float64 { return t.coverage }), "share", n)
		r.out.add("obs.trace_overhead."+q.name,
			med(func(t tracedRun) float64 { return float64(t.wall) })/float64(quantile(untraced[i], 0.5)), "ratio", n)
		if q.id == 0 {
			r.out.add("translator.translate_us."+q.name, med(func(t tracedRun) float64 { return float64(t.translate) / 1e3 }), "us", n)
		}
		for _, t := range ts {
			colRows += t.colRows
			scanned += t.rowsScanned
		}
	}
	r.out.add("sqlengine.vectorized_row_share", ratio(colRows, scanned-colRows), "share", 1)
	return nil
}

// traced runs one query under a fresh tracer and returns its canonical
// answer, the finished trace and the call's wall time.
func (r *run) traced(q query, text string) (string, *obs.QueryTrace, time.Duration, error) {
	sys := r.env.Sys
	if q.id == 0 {
		t := time.Now()
		res, qt, err := sys.QueryTraced(text)
		d := time.Since(t)
		if err != nil {
			return "", nil, d, err
		}
		return canonItems(res.Items), qt, d, nil
	}
	tr := obs.NewTracer("query")
	t := time.Now()
	res, err := sys.Engine.ExecTraced(text, tr.Root())
	qt := tr.Finish(text)
	d := time.Since(t)
	if err != nil {
		return "", nil, d, err
	}
	return canonRows(res.Rows), qt, d, nil
}

// inflated sums the block decompressions of every compressed store.
func (r *run) inflated() int64 {
	var n int64
	for _, t := range historyTables(r.env.Sys) {
		if cs, ok := r.env.Sys.CompressedStore(t); ok {
			n += cs.DecompressionCount()
		}
	}
	return n
}

// parseTime is the median of 21 timed sqlengine.Parse calls.
func parseTime(sql string) (time.Duration, error) {
	ds := make([]time.Duration, 21)
	for k := range ds {
		t := time.Now()
		if _, err := sqlengine.Parse(sql); err != nil {
			return 0, err
		}
		ds[k] = time.Since(t)
	}
	return quantile(ds, 0.5), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// analyse computes self times per operator class for a finished trace.
// A span's self time is its duration minus the part of it its children
// cover; parallel children are merged, not summed.
func analyse(root *obs.TraceNode) tracedRun {
	tr := tracedRun{self: map[string]int64{}}
	cov := covered(root)
	tr.unattributed = root.DurNS - cov
	if root.DurNS > 0 {
		tr.coverage = float64(cov) / float64(root.DurNS)
	}
	var walk func(n *obs.TraceNode)
	walk = func(n *obs.TraceNode) {
		for _, c := range n.Children {
			tr.self[operatorClass(c.Name)] += c.DurNS - covered(c)
			if c.Name == "translate" {
				tr.translate += c.DurNS
			}
			walk(c)
		}
	}
	walk(root)
	return tr
}

// covered is the length of the union of n's children's intervals,
// clipped to n.
func covered(n *obs.TraceNode) int64 {
	type span struct{ lo, hi int64 }
	var ss []span
	for _, c := range n.Children {
		lo, hi := max(c.StartNS, n.StartNS), min(c.StartNS+c.DurNS, n.StartNS+n.DurNS)
		if hi > lo {
			ss = append(ss, span{lo, hi})
		}
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].lo < ss[j].lo })
	var total, end int64
	for _, s := range ss {
		if s.lo > end {
			end = s.lo
		}
		if s.hi > end {
			total += s.hi - end
			end = s.hi
		}
	}
	return total
}
