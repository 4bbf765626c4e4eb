package sqlengine

import (
	"context"
	"fmt"
	"strings"

	"archis/internal/relstore"
	"archis/internal/temporal"
)

// One plan per SELECT (DESIGN.md §8.1, §12). planSelect makes every
// execution decision once — source resolution, the valid-time
// rewrite, the conjunct partition, each source's access path, the
// fold order, the fuse decision and every fold's join strategy.
// execSelect runs the plan; EXPLAIN only renders it, so the two can
// never disagree.

// accessKind is how a planned scan reads its source, and so what its
// morsel list holds (drain.go).
type accessKind uint8

const (
	accessWhole accessKind = iota // one morsel: index probe or whole borrow scan
	accessPages                   // page morsels (relstore.MorselSource)
	accessBatch                   // column-batch morsels (BatchSource)
)

// scanPlan is the compiled access plan for one source: pushed-down
// zone bounds, an optional equality-index probe, the residual filter,
// the morsel access and its fan-out cap, and (planner on) the
// cardinality estimates behind the choice.
type scanPlan struct {
	src       *source
	conjuncts []Expr
	bounds    []relstore.ZoneBound
	eqVal     relstore.Value
	eqIndex   *relstore.Index
	filter    evalFunc
	est       planEstimate
	access    accessKind
	workers   int       // fan-out cap for the drain; 1 drains inline
	kernels   batchPlan // accessBatch: compiled column kernels
	needed    []bool    // accessBatch: columns the statement reads
}

// accessLabel names the access path that runs, for spans: colscan,
// index or scan.
func (sc *scanPlan) accessLabel() string {
	switch {
	case sc.access == accessBatch:
		return "colscan"
	case sc.eqIndex != nil:
		return "index"
	}
	return "scan"
}

// foldPlan is the planned fold of one source into the accumulated
// join result.
type foldPlan struct {
	scan     *scanPlan // the folded source's own access
	joins    []equiJoin
	strategy joinStrategy
	index    *relstore.Index // stratIndex, stratIndexOrHash: the probe index
	// fused marks the first fold when it is a build-on-inner hash
	// join: the driving scan streams straight into the probe.
	fused bool
	// Planner estimates (planned=false with the planner off).
	planned                    bool
	estOuter, estInner, estOut int
}

// selectPlan is the whole decided statement.
type selectPlan struct {
	stmt       *SelectStmt
	sources    []*source // FROM order: SELECT * expands in this order
	validAt    temporal.Date
	hasValidAt bool
	first      *scanPlan  // the driving scan
	folds      []foldPlan // the other sources, in join order
	residual   []Expr     // multi-source conjuncts no fold consumed
	filter     evalFunc   // residual, compiled against layout
	layout     *rowLayout // the joined row layout
	// group is set for a grouped single-source statement: aggregation
	// then runs inside the drain, one accumulator per sink.
	group *groupPlan
}

// planSelect decides stmt against the storage pinned by sn.
func (en *Engine) planSelect(ctx context.Context, stmt *SelectStmt, sn *relstore.Snapshot) (*selectPlan, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("sql: SELECT requires FROM")
	}
	p := &selectPlan{stmt: stmt}
	seen := map[string]bool{}
	for _, ref := range stmt.From {
		s, err := en.resolveSource(ref, sn)
		if err != nil {
			return nil, err
		}
		key := strings.ToLower(ref.Alias)
		if seen[key] {
			return nil, fmt.Errorf("sql: duplicate alias %s", ref.Alias)
		}
		seen[key] = true
		p.sources = append(p.sources, s)
	}

	var conjuncts []Expr
	if stmt.Where != nil {
		conjuncts = splitAnd(stmt.Where, nil)
	}
	// Valid-time scope (validtime.go): rewritten to plain conjuncts
	// here, before partitioning, so pushdown and planning see them as
	// ordinary predicates.
	if d, ok := ValidAsOf(ctx); ok {
		p.validAt, p.hasValidAt = d, true
		conjuncts = append(conjuncts, validConjuncts(p.sources, d)...)
	}
	if len(p.sources) == 1 {
		return p, en.planSingle(p, conjuncts)
	}

	// Partition conjuncts by the aliases they touch. Constant
	// predicates, multi-source ones and ones naming no FROM alias stay
	// for the residual filter.
	perAlias := map[string][]Expr{}
	var multi []Expr
	for _, c := range conjuncts {
		aliases := map[string]bool{}
		if err := exprAliases(c, p.sources, aliases); err != nil {
			return nil, err
		}
		target := ""
		for a := range aliases {
			target = a
		}
		if len(aliases) == 1 && seen[target] {
			perAlias[target] = append(perAlias[target], c)
		} else {
			multi = append(multi, c)
		}
	}
	scans := make([]*scanPlan, len(p.sources))
	for i, s := range p.sources {
		var err error
		if scans[i], err = en.planScan(s, perAlias[strings.ToLower(s.alias)], p.sources); err != nil {
			return nil, err
		}
	}

	// Fold order: with the planner on, greedy by estimated cardinality
	// with a cost-based strategy per fold; with it off, FROM order and
	// the legacy rules.
	order := make([]int, len(p.sources))
	for i := range order {
		order[i] = i
	}
	if en.Planner {
		order = joinOrder(p.sources, scans, multi)
	}
	p.first = scans[order[0]]
	layout := layoutFor(p.first.src.alias, p.first.src.schema)
	joined := map[string]bool{strings.ToLower(p.first.src.alias): true}
	estOuter := p.first.est.OutRows
	for fi, idx := range order[1:] {
		s := p.sources[idx]
		f := foldPlan{scan: scans[idx]}
		f.joins, multi = en.equiJoinConds(multi, layout, joined, s, p.sources)
		if en.Planner {
			costFold(&f, estOuter)
			estOuter = f.estOut
		} else {
			legacyFold(&f)
		}
		if fi == 0 && f.strategy == stratHashBuildInner {
			// The driving scan streams into the probe, fanned out over
			// page morsels when it can be.
			f.fused = true
			en.planPages(p.first, en.scanWorkers())
		}
		p.folds = append(p.folds, f)
		layout = layout.concat(layoutFor(s.alias, s.schema))
		joined[strings.ToLower(s.alias)] = true
	}
	p.layout = layout
	if len(multi) > 0 {
		var err error
		if p.filter, err = en.compileExpr(andAll(multi), layout); err != nil {
			return nil, err
		}
		p.residual = multi
	}
	return p, nil
}

// planSingle plans a single-source statement: every conjunct filters
// the scan, grouped statements aggregate inside the drain, and the
// scan reads column batches when the storage streams them, else page
// morsels when it can fan out. A non-mergeable aggregate caps the
// fan-out at one worker: the inline drain folds into one accumulator.
func (en *Engine) planSingle(p *selectPlan, conjuncts []Expr) error {
	s := p.sources[0]
	sc, err := en.planScan(s, conjuncts, p.sources)
	if err != nil {
		return err
	}
	p.first = sc
	p.layout = layoutFor(s.alias, s.schema)
	workers := en.scanWorkers()
	if en.isGrouped(p.stmt) {
		if p.group, err = en.compileGrouping(p.stmt, p.layout); err != nil {
			return err
		}
		if !p.group.mergeable() {
			workers = 1
		}
	}
	if sc.eqIndex != nil {
		return nil
	}
	if _, ok := s.virtual.(BatchSource); ok && en.Columnar {
		sc.access, sc.workers = accessBatch, workers
		sc.kernels = en.compileKernels(conjuncts, s, p.sources)
		sc.needed = batchNeededCols(p.stmt, conjuncts, s)
		return nil
	}
	en.planPages(sc, workers)
	return nil
}

// planPages switches sc to page morsels when it can fan out: more than
// one worker, no index probe, and storage that provides morsels.
func (en *Engine) planPages(sc *scanPlan, workers int) {
	if workers <= 1 || sc.eqIndex != nil {
		return
	}
	if _, ok := sc.src.morselSource(); ok {
		sc.access, sc.workers = accessPages, workers
	}
}

// planScan builds the access plan for one source: index selection,
// zone-bound pushdown, residual filter compilation. With the planner
// on, the eq-index probe is taken only when the cost model prefers it
// over the bounded scan and the most selective candidate wins; with
// the planner off, the first eq conjunct with an index wins
// unconditionally (the legacy heuristic). The access starts as one
// whole-scan morsel; planSelect widens it for the scans that fan out.
func (en *Engine) planScan(s *source, conjuncts []Expr, sources []*source) (*scanPlan, error) {
	p := &scanPlan{src: s, conjuncts: conjuncts, workers: 1}
	var cands []eqCandidate
	var conj conjunctStats
	for _, c := range conjuncts {
		col, op, v, ok := en.colConstConjunct(c, s, sources)
		if !ok {
			conj.opaque++
			continue
		}
		// Zone bound for INT/DATE columns.
		ct := s.schema.Columns[col].Type
		zv := v
		if ct == relstore.TypeDate && v.Kind == relstore.TypeString {
			if d, err := temporal.ParseDate(strings.TrimSpace(v.S)); err == nil {
				zv = relstore.DateV(d)
			}
		}
		if (ct == relstore.TypeInt || ct == relstore.TypeDate) &&
			(zv.Kind == relstore.TypeInt || zv.Kind == relstore.TypeDate) {
			p.bounds = append(p.bounds, relstore.ZoneBound{Col: col, Op: op, Bound: zv.I})
		}
		// Index equality candidate.
		if op == "=" {
			added := false
			if s.base != nil {
				if ix := s.base.IndexOn(col); ix != nil {
					cv, err := coerce(zv, ct)
					if err == nil {
						cands = append(cands, eqCandidate{col: col, val: cv, ix: ix})
						added = true
					}
				}
			}
			if !added {
				conj.eqUnindexed++
			}
		} else {
			conj.ranges++
		}
	}
	if en.Planner {
		en.chooseAccess(s, p, cands, conj)
	} else if len(cands) > 0 {
		p.eqVal, p.eqIndex = cands[0].val, cands[0].ix
	}

	// Compile the full residual predicate (reapplying pushed bounds is
	// harmless and keeps correctness independent of pruning).
	if len(conjuncts) > 0 {
		var err error
		if p.filter, err = en.compileExpr(andAll(conjuncts), layoutFor(s.alias, s.schema)); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// andAll rebuilds a conjunction from its conjuncts.
func andAll(conjuncts []Expr) Expr {
	pred := conjuncts[0]
	for _, c := range conjuncts[1:] {
		pred = &BinaryExpr{Op: "AND", L: pred, R: c}
	}
	return pred
}
