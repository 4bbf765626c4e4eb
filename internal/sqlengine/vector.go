package sqlengine

import (
	"strings"

	"archis/internal/relstore"
	"archis/internal/temporal"
)

// Vectorized scans (DESIGN.md §13). When a single-source statement
// reads storage that streams column batches (BatchSource — the
// compressed store's columnar path), the engine's columnar mode is on
// and the planner found no equality-index probe, planSingle gives the
// scan batch morsels: filter conjuncts of the form `col op const`
// compile into batch kernels that narrow a selection vector
// column-at-a-time, and only the surviving rows are materialized for
// aggregation or projection (scanPlan.runBatch). Results are identical
// to the row path: selection vectors keep ascending row order inside
// each batch, and when any conjunct cannot be kernelized the full
// compiled filter reruns on kernel survivors.

// BatchSource is the storage interface behind the vectorized path.
// Implementations stream batches whose selected rows, concatenated in
// order, reproduce the serial Scan row sequence (see
// relstore.BatchFunc). needed marks the columns the consumer will
// read; nil means all.
type BatchSource interface {
	ScanBatches(bounds []relstore.ZoneBound, needed []bool) ([]relstore.BatchFunc, error)
}

// colKernel is one compiled `col op const` conjunct, evaluated against
// a column vector. The fast paths compare raw numeric payloads against
// a precomputed float; everything else reconstructs the Value and
// defers to compareValues, so kernel semantics match the compiled
// row filter bit for bit.
type colKernel struct {
	col int
	cv  relstore.Value // original constant, for the generic fallback
	cf  float64        // numeric image of the constant (fast paths)
	// Constant shape: numConst means the constant itself is numeric
	// (Int/Float/Date — every numeric column value compares as float,
	// exactly relstore.Compare); dateConst means a string constant that
	// parses as a date, whose fast path applies only to Date values
	// (compareValues' date-string coercion).
	numConst  bool
	dateConst bool
	// Truth table for the comparison outcome.
	ltOK, eqOK, gtOK bool
}

func (k *colKernel) cmpF(x float64) bool {
	switch {
	case x < k.cf:
		return k.ltOK
	case x > k.cf:
		return k.gtOK
	default:
		return k.eqOK
	}
}

// pass reports whether row i of vec survives this kernel, mirroring
// the row filter: NULL on either side drops the row, otherwise the
// comparison outcome decides.
func (k *colKernel) pass(vec *relstore.ColVec, i int) bool {
	kind := vec.KindAt(i)
	if kind == relstore.TypeNull {
		return false
	}
	if k.numConst {
		switch kind {
		case relstore.TypeInt, relstore.TypeDate:
			return k.cmpF(float64(vec.I[i]))
		case relstore.TypeFloat:
			return k.cmpF(vec.F[i])
		}
	}
	if k.dateConst && kind == relstore.TypeDate {
		return k.cmpF(float64(vec.I[i]))
	}
	v := vec.ValueAt(i)
	if v.IsNull() {
		return false
	}
	cmp := compareValues(v, k.cv)
	switch {
	case cmp < 0:
		return k.ltOK
	case cmp > 0:
		return k.gtOK
	default:
		return k.eqOK
	}
}

// batchPlan is the compiled vectorized filter: the kernels plus
// whether any conjunct resisted kernelization (residual true reruns
// the full row filter on kernel survivors).
type batchPlan struct {
	kernels  []colKernel
	residual bool
}

// compileKernels turns the kernelizable conjuncts into colKernels.
func (en *Engine) compileKernels(conjuncts []Expr, s *source, sources []*source) batchPlan {
	var bp batchPlan
	for _, c := range conjuncts {
		col, op, v, ok := en.colConstConjunct(c, s, sources)
		if !ok {
			bp.residual = true
			continue
		}
		k := colKernel{col: col, cv: v}
		switch op {
		case "=":
			k.eqOK = true
		case "<":
			k.ltOK = true
		case "<=":
			k.ltOK, k.eqOK = true, true
		case ">":
			k.gtOK = true
		case ">=":
			k.gtOK, k.eqOK = true, true
		default:
			bp.residual = true
			continue
		}
		switch v.Kind {
		case relstore.TypeInt, relstore.TypeDate:
			k.numConst, k.cf = true, float64(v.I)
		case relstore.TypeFloat:
			k.numConst, k.cf = true, v.F
		case relstore.TypeString:
			if s.schema.Columns[col].Type == relstore.TypeDate {
				if d, err := temporal.ParseDate(strings.TrimSpace(v.S)); err == nil {
					k.dateConst, k.cf = true, float64(d)
				}
			}
		}
		bp.kernels = append(bp.kernels, k)
	}
	return bp
}

// batchNeededCols computes the columns the statement reads from its
// single source: filter conjuncts, select list, GROUP BY, ORDER BY and
// HAVING. A star item or a reference that does not resolve returns nil
// (decode everything).
func batchNeededCols(stmt *SelectStmt, conjuncts []Expr, s *source) []bool {
	needed := make([]bool, len(s.schema.Columns))
	resolved := true
	mark := func(e Expr) {
		walkExpr(e, func(sub Expr) {
			if ref, isRef := sub.(*ColRef); isRef {
				pos := s.schema.ColumnIndex(ref.Name)
				if pos < 0 {
					resolved = false
					return
				}
				needed[pos] = true
			}
		})
	}
	for _, it := range stmt.Select {
		if it.Star {
			return nil
		}
		mark(it.Expr)
	}
	for _, c := range conjuncts {
		mark(c)
	}
	for _, g := range stmt.GroupBy {
		mark(g)
	}
	for _, o := range stmt.OrderBy {
		mark(o.Expr)
	}
	if stmt.Having != nil {
		mark(stmt.Having)
	}
	if !resolved {
		return nil
	}
	return needed
}
