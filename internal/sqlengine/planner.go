package sqlengine

// Cost-based access-path and join planning (DESIGN.md §12). The
// planner is fed by cheap storage statistics — table row counts,
// per-index distinct-key counts from the B+tree, zone-map page-prune
// estimates — and decides three things the executor used to hard-code:
//
//   1. eq-index probe vs. (morsel-parallel) scan for each table
//      reference, by estimated rows touched;
//   2. the hash-join build side, as the smaller estimated input;
//   3. the fold order of multi-join chains, greedily by estimated
//      cardinality (equi-connected sources before Cartesian ones).
//
// Every decision is deterministic: estimates derive only from table
// state, ties break toward declaration/FROM order, and EXPLAIN renders
// the very plan the executor runs (plan.go). Engine.Planner
// (default on) falls back to the legacy fixed heuristics when false,
// which is what the planner-on/off differential tests compare against.

import (
	"strings"

	"archis/internal/relstore"
)

// ScanEstimator is implemented by storage that can cheaply predict the
// footprint of a bounded scan. Base tables implement it natively
// (relstore zone maps); virtual tables opt in (segment and blockzip
// stores do). Sources without an estimator get defaultVirtualRows.
type ScanEstimator interface {
	EstimateScan(bounds []relstore.ZoneBound) relstore.ScanEstimate
}

// Cost-model constants. Units are "row visits": scanning one cached
// row costs rowCost, touching one page costs pageCost (decode +
// cache), and one index probe costs probeCost per fetched row (random
// page access beats sequential only at low selectivity).
const (
	rowCost   = 1
	pageCost  = 8
	probeCost = 4

	// defaultVirtualRows is the assumed size of a virtual table that
	// exposes no statistics.
	defaultVirtualRows = 1024

	// Default selectivities for conjuncts the statistics cannot
	// resolve: equality on an unindexed column, range predicates, and
	// opaque expressions.
	eqSelectivity     = 0.1
	rangeSelectivity  = 0.3
	opaqueSelectivity = 0.5

	// estCap keeps join cardinality products inside int range.
	estCap = 1 << 40
)

// planEstimate carries the planner's cardinality estimates for one
// table access; zero-valued (Planned=false) when the planner is off.
type planEstimate struct {
	Planned    bool
	AccessRows int // rows the chosen access path touches
	OutRows    int // rows surviving all conjuncts (>= 1)
}

// sourceEstimate resolves scan statistics for a source.
func (en *Engine) sourceEstimate(s *source, bounds []relstore.ZoneBound) relstore.ScanEstimate {
	if s.base != nil {
		return s.base.EstimateScan(bounds)
	}
	if se, ok := s.virtual.(ScanEstimator); ok {
		return se.EstimateScan(bounds)
	}
	return relstore.ScanEstimate{
		Rows: defaultVirtualRows, Pages: 1,
		TotalRows: defaultVirtualRows, TotalPages: 1,
	}
}

// indexMatches estimates how many rows an equality probe on ix
// fetches: total rows over distinct keys, at least one.
func indexMatches(totalRows int, ix *relstore.Index) int {
	n := ix.Len()
	if n <= 0 || totalRows <= 0 {
		return 1
	}
	m := (totalRows + n - 1) / n
	if m < 1 {
		m = 1
	}
	return m
}

// indexDeclPos returns the declaration position of ix on t (used as
// the deterministic tie-break: first-declared wins).
func indexDeclPos(t *relstore.Table, ix *relstore.Index) int {
	for i, cand := range t.Indexes() {
		if cand == ix {
			return i
		}
	}
	return int(^uint(0) >> 1)
}

// eqCandidate is one `col = const` conjunct with a usable index.
type eqCandidate struct {
	col int
	val relstore.Value
	ix  *relstore.Index
}

// chooseAccess runs the single-table cost model: it compares the
// bounded scan against the most selective eq-index candidate and
// fills p.eqVal/p.eqIndex plus p.est. conjStats describes the
// recognized conjunct mix for the output-cardinality estimate.
func (en *Engine) chooseAccess(s *source, p *scanPlan, cands []eqCandidate, conj conjunctStats) {
	est := en.sourceEstimate(s, p.bounds)

	// Most selective candidate; ties break toward the first-declared
	// index (and then toward conjunct order, since the iteration is
	// stable).
	best := -1
	bestMatches := 0
	for i, c := range cands {
		m := indexMatches(est.TotalRows, c.ix)
		switch {
		case best < 0, m < bestMatches:
			best, bestMatches = i, m
		case m == bestMatches &&
			indexDeclPos(s.base, c.ix) < indexDeclPos(s.base, cands[best].ix):
			best, bestMatches = i, m
		}
	}

	scanCost := est.Pages*pageCost + est.Rows*rowCost
	accessRows := est.Rows
	if best >= 0 && bestMatches*probeCost < scanCost {
		accessRows = bestMatches
		p.eqVal, p.eqIndex = cands[best].val, cands[best].ix
	}

	// Output cardinality: apply every conjunct's selectivity to the
	// pruned scan estimate, clamped to what the access path touches.
	sel := 1.0
	for _, c := range cands {
		sel *= 1.0 / float64(indexMatchesInv(est.TotalRows, c.ix))
	}
	for i := 0; i < conj.eqUnindexed; i++ {
		sel *= eqSelectivity
	}
	for i := 0; i < conj.ranges; i++ {
		sel *= rangeSelectivity
	}
	for i := 0; i < conj.opaque; i++ {
		sel *= opaqueSelectivity
	}
	out := int(float64(est.Rows) * sel)
	if out > accessRows {
		out = accessRows
	}
	if out < 1 {
		out = 1
	}
	p.est = planEstimate{Planned: true, AccessRows: accessRows, OutRows: out}
}

// indexMatchesInv returns the denominator of an eq conjunct's
// selectivity through ix: the number of distinct keys (so selectivity
// is matches/total = 1/distinct), at least one.
func indexMatchesInv(totalRows int, ix *relstore.Index) int {
	n := ix.Len()
	if n <= 0 {
		return 1
	}
	return n
}

// conjunctStats counts the predicate shapes planScan recognized, for
// selectivity estimation.
type conjunctStats struct {
	eqUnindexed int // col = const without a usable index
	ranges      int // col <op> const range comparisons
	opaque      int // conjuncts the planner cannot see through
}

// ---- join planning ----

type joinStrategy uint8

const (
	stratNested joinStrategy = iota
	stratIndex
	stratHashBuildInner
	stratHashBuildOuter
	// stratIndexOrHash is the planner-off rule: an index join when the
	// outer input has at most indexJoinThreshold rows at run time, else
	// a build-inner hash join.
	stratIndexOrHash
)

func capEst(v int64) int {
	if v > estCap {
		return estCap
	}
	if v < 1 {
		return 1
	}
	return int(v)
}

// joinOrder orders the sources greedily by estimated cardinality —
// smallest filtered source first, then the smallest equi-connected
// source, Cartesian folds last. All ties break toward FROM order, so
// the order is deterministic.
func joinOrder(sources []*source, scans []*scanPlan, multi []Expr) []int {
	n := len(sources)
	// Equi-join connectivity between aliases, from the multi-alias
	// conjuncts.
	edges := make(map[string]map[string]bool)
	addEdge := func(a, b string) {
		if edges[a] == nil {
			edges[a] = map[string]bool{}
		}
		edges[a][b] = true
	}
	for _, c := range multi {
		b, ok := c.(*BinaryExpr)
		if !ok || b.Op != "=" {
			continue
		}
		la := singleAlias(b.L, sources)
		ra := singleAlias(b.R, sources)
		if la == "" || ra == "" || la == ra {
			continue
		}
		addEdge(la, ra)
		addEdge(ra, la)
	}

	rows := func(i int) int { return scans[i].est.OutRows }
	used := make([]bool, n)
	order := make([]int, 0, n)
	start := 0
	for i := 1; i < n; i++ {
		if rows(i) < rows(start) {
			start = i
		}
	}
	order = append(order, start)
	used[start] = true
	bound := map[string]bool{strings.ToLower(sources[start].alias): true}
	connected := func(i int) bool {
		for a := range edges[strings.ToLower(sources[i].alias)] {
			if bound[a] {
				return true
			}
		}
		return false
	}
	for len(order) < n {
		best, bestConn := -1, false
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			conn := connected(i)
			switch {
			case best < 0,
				conn && !bestConn,
				conn == bestConn && rows(i) < rows(best):
				best, bestConn = i, conn
			}
		}
		order = append(order, best)
		used[best] = true
		bound[strings.ToLower(sources[best].alias)] = true
	}
	return order
}

// costFold picks the planner's strategy for folding f's source into an
// outer input of estOuter estimated rows, and fills the estimates.
func costFold(f *foldPlan, estOuter int) {
	estInner := f.scan.est.OutRows
	f.planned, f.estOuter, f.estInner = true, estOuter, estInner
	if len(f.joins) == 0 {
		f.strategy = stratNested
		f.estOut = capEst(int64(estOuter) * int64(estInner))
		return
	}
	// Join cardinality: outer x inner over the join key's distinct
	// count (inner index when available, a fixed guess otherwise).
	distinct := estInner / 10
	ix := f.innerIndex()
	if ix != nil && ix.Len() > 0 {
		distinct = ix.Len()
	}
	if distinct < 1 {
		distinct = 1
	}
	f.estOut = capEst(int64(estOuter) * int64(estInner) / int64(distinct))
	switch {
	case ix != nil && int64(estOuter)*probeCost < int64(f.scan.est.AccessRows)+int64(estOuter):
		// Index nested-loop beats building a hash table over the inner
		// side when the outer input is small.
		f.strategy, f.index = stratIndex, ix
	case estInner <= estOuter:
		f.strategy = stratHashBuildInner
	default:
		f.strategy = stratHashBuildOuter
	}
}

// legacyFold applies the planner-off rules: an index join (below the
// outer-row threshold) when the inner side has an index on the first
// equi key, else a build-inner hash join, else a nested loop.
func legacyFold(f *foldPlan) {
	switch ix := f.innerIndex(); {
	case len(f.joins) == 0:
		f.strategy = stratNested
	case ix != nil:
		f.strategy, f.index = stratIndexOrHash, ix
	default:
		f.strategy = stratHashBuildInner
	}
}

// innerIndex is the folded base table's index on the first equi key.
func (f *foldPlan) innerIndex() *relstore.Index {
	if len(f.joins) == 0 || f.scan.src.base == nil {
		return nil
	}
	return f.scan.src.base.IndexOn(f.joins[0].newPos)
}

// singleAlias resolves e to the one alias it references, or "".
func singleAlias(e Expr, sources []*source) string {
	out := map[string]bool{}
	if err := exprAliases(e, sources, out); err != nil || len(out) != 1 {
		return ""
	}
	for a := range out {
		return a
	}
	return ""
}
