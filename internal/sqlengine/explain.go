package sqlengine

import (
	"context"
	"fmt"
	"strings"

	"archis/internal/obs"
	"archis/internal/relstore"
)

// EXPLAIN [ANALYZE] rendering. Plain EXPLAIN renders the plan
// planSelect decides — index selection, zone-bound pushdown, morsel
// access, join strategy — without executing, so it is deterministic
// and cheap. EXPLAIN ANALYZE executes the statement
// under a fresh tracer and renders the finished span tree, so every
// node carries measured timings and cardinalities.

func (en *Engine) execExplain(ctx context.Context, st *ExplainStmt, sn *relstore.Snapshot) (*Result, error) {
	if st.Analyze {
		tr := obs.NewTracer("query")
		res, err := en.execSelect(ctx, st.Inner, tr.Root(), sn)
		if err != nil {
			return nil, err
		}
		tr.Root().AddRows(0, int64(len(res.Rows)))
		return planResult(tr.Finish("").Tree()), nil
	}
	lines, err := en.explainSelect(ctx, st.Inner, sn)
	if err != nil {
		return nil, err
	}
	return planResult(strings.Join(lines, "\n")), nil
}

// planResult wraps rendered plan text as a one-column result set.
func planResult(text string) *Result {
	res := &Result{Columns: []string{"plan"}}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, relstore.Row{relstore.String_(line)})
	}
	return res
}

// explainSelect renders the statement's plan — the same selectPlan
// execSelect runs. The cardinality-dependent planner-off rule (index
// vs hash join under indexJoinThreshold outer rows) is shown as the
// rule the executor applies, and a fan-out shows the configured
// worker cap (the drain runs min(cap, morsels) workers).
func (en *Engine) explainSelect(ctx context.Context, stmt *SelectStmt, sn *relstore.Snapshot) ([]string, error) {
	p, err := en.planSelect(ctx, stmt, sn)
	if err != nil {
		return nil, err
	}
	var lines []string
	add := func(depth int, format string, args ...any) {
		lines = append(lines, strings.Repeat("  ", depth)+fmt.Sprintf(format, args...))
	}
	add(0, "select")
	if p.hasValidAt {
		// Surfaced so bitemporal plans are distinguishable from
		// transaction-time ones; the rewritten conjuncts themselves are
		// already counted in the filter/bounds figures below.
		add(1, "valid_pred=vstart<=%s<=vend", p.validAt)
	}

	first := describeScan(p.first)
	switch {
	case len(p.folds) == 0 && p.first.workers > 1:
		add(1, "morsel-fanout workers=%d", p.first.workers)
		add(2, "%s", first)
		if p.group != nil {
			add(1, "agg-merge")
		}
	case len(p.folds) == 0 || !p.folds[0].fused:
		add(1, "%s", first)
	}
	for i := range p.folds {
		f := &p.folds[i]
		alias := f.scan.src.alias
		switch {
		case f.fused && f.planned:
			add(1, "hash join keys=%d build=%s est outer=%d inner=%d out=%d",
				len(f.joins), alias, f.estOuter, f.estInner, f.estOut)
		case f.fused:
			add(1, "hash join keys=%d", len(f.joins))
		case f.strategy == stratIndex:
			add(1, "index join %s keys=%d (index %s) est outer=%d out=%d",
				alias, len(f.joins), f.index.Name, f.estOuter, f.estOut)
		case f.strategy == stratIndexOrHash:
			add(1, "join %s keys=%d: index join (index %s) if outer rows <= %d, else hash join",
				alias, len(f.joins), f.index.Name, indexJoinThreshold)
		case f.strategy == stratHashBuildInner && f.planned:
			add(1, "hash join %s keys=%d build=%s est outer=%d inner=%d out=%d",
				alias, len(f.joins), alias, f.estOuter, f.estInner, f.estOut)
		case f.strategy == stratHashBuildInner:
			add(1, "hash join %s keys=%d", alias, len(f.joins))
		case f.strategy == stratHashBuildOuter:
			add(1, "hash join %s keys=%d build=outer est outer=%d inner=%d out=%d",
				alias, len(f.joins), f.estOuter, f.estInner, f.estOut)
		case f.planned:
			add(1, "nested-loop join %s est out=%d", alias, f.estOut)
		default:
			add(1, "nested-loop join %s", alias)
		}
		if f.fused {
			add(2, "build: %s", describeScan(f.scan))
			add(2, "probe: %s (streamed)", first)
		}
	}
	if len(p.residual) > 0 {
		add(1, "filter residual=%d conjuncts", len(p.residual))
	}
	explainProject(stmt, add)
	return lines, nil
}

// describeScan renders one planned scan.
func describeScan(sc *scanPlan) string {
	kind := "table"
	if sc.src.base == nil {
		kind = "virtual"
	}
	d := fmt.Sprintf("scan %s (%s)", sc.src.alias, kind)
	if sc.eqIndex != nil {
		d = fmt.Sprintf("index scan %s (index %s)", sc.src.alias, sc.eqIndex.Name)
	}
	if len(sc.bounds) > 0 {
		d += fmt.Sprintf(" bounds=%d", len(sc.bounds))
	}
	if sc.filter != nil {
		d += fmt.Sprintf(" filter=%d conjuncts", len(sc.conjuncts))
	}
	if sc.est.Planned {
		d += fmt.Sprintf(" est=%d", sc.est.OutRows)
	}
	if sc.access == accessBatch {
		d += " access=colscan"
	}
	return d
}

func explainProject(stmt *SelectStmt, add func(int, string, ...any)) {
	d := fmt.Sprintf("project cols=%d", len(stmt.Select))
	if len(stmt.GroupBy) > 0 {
		d += fmt.Sprintf(" group-by=%d", len(stmt.GroupBy))
	}
	if stmt.Having != nil {
		d += " having"
	}
	if stmt.Distinct {
		d += " distinct"
	}
	if len(stmt.OrderBy) > 0 {
		d += fmt.Sprintf(" order-by=%d", len(stmt.OrderBy))
	}
	if stmt.Limit >= 0 {
		d += fmt.Sprintf(" limit=%d", stmt.Limit)
	}
	add(1, "%s", d)
}
