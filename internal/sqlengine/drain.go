package sqlengine

import (
	"context"
	"sync"
	"sync/atomic"

	"archis/internal/obs"
	"archis/internal/relstore"
)

// The one drain (DESIGN.md §8.1). Every scan is a list of morsels —
// column-batch morsels, page morsels, one morsel for an index probe or
// a whole borrow scan, or one morsel for an already-materialized row
// list — and drain runs that list into sinks. With one worker it runs
// inline on the calling goroutine into a single sink, so any aggregate
// works and nothing is merged. With more it pulls morsels from a
// shared counter, keeps one partial sink per morsel and merges them in
// morsel order, which reproduces the inline row order and group order
// exactly (relstore's morsel determinism contract), so ORDER BY,
// DISTINCT, LIMIT, GROUP BY and HAVING run unchanged on top.

// morsel is one unit of scan work. Exactly one of batch, page and
// rows is set, or none for the plan's whole access path.
type morsel struct {
	sc    *scanPlan           // the scan it belongs to; nil for a row list
	batch relstore.BatchFunc  // a column-batch morsel
	page  relstore.MorselFunc // a page morsel
	rows  []relstore.Row      // an already-materialized row list
}

// worker is one drain goroutine's private state.
type worker struct {
	// cc is per worker: its row counter is unsynchronized.
	cc      *cancelProbe
	sel     []int32      // engine-owned selection buffer
	scratch relstore.Row // row image filled per surviving batch row
}

// sink is where a morsel's surviving rows go: a group accumulator, a
// hash-join probe whose output rows collect in rows, or else rows
// itself.
type sink struct {
	acc    *groupAcc
	jt     *joinTable
	joins  []equiJoin
	sc     *probeScratch
	rows   []relstore.Row
	probed int64 // probe rows with a fully non-NULL key
}

// add consumes one row. scratch marks a row image that is only valid
// during the call, which a row list must clone.
func (s *sink) add(row relstore.Row, scratch bool) error {
	switch {
	case s.acc != nil:
		return s.acc.add(row)
	case s.jt != nil:
		var ok bool
		if s.rows, ok = s.jt.probe(row, s.joins, s.sc, s.rows); ok {
			s.probed++
		}
		return nil
	}
	if scratch {
		row = row.Clone()
	}
	s.rows = append(s.rows, row)
	return nil
}

// morsels splits a planned scan into its morsel list.
func (en *Engine) morsels(sc *scanPlan) ([]morsel, error) {
	switch sc.access {
	case accessBatch:
		bms, err := sc.src.virtual.(BatchSource).ScanBatches(sc.bounds, sc.needed)
		if err != nil {
			return nil, err
		}
		out := make([]morsel, len(bms))
		for i, bm := range bms {
			out[i] = morsel{sc: sc, batch: bm}
		}
		return out, nil
	case accessPages:
		ms, _ := sc.src.morselSource()
		pms, err := ms.ScanMorsels(sc.bounds)
		if err != nil {
			return nil, err
		}
		out := make([]morsel, len(pms))
		for i, pm := range pms {
			out[i] = morsel{sc: sc, page: pm}
		}
		return out, nil
	}
	return []morsel{{sc: sc}}, nil
}

// drain runs morsels on min(workers, len(morsels)) workers and returns
// the sinks: one when inline, else one per morsel in morsel order.
// On failure it reports the earliest morsel's error, matching what
// the inline drain would have hit first.
func (en *Engine) drain(ctx context.Context, morsels []morsel, workers int, newSink func() *sink) ([]*sink, error) {
	if workers > len(morsels) {
		workers = len(morsels)
	}
	if workers <= 1 {
		out := newSink()
		w := &worker{cc: newCancelProbe(ctx)}
		for i := range morsels {
			if w.cc.check() {
				return nil, w.cc.err()
			}
			if err := morsels[i].run(w, out); err != nil {
				return nil, err
			}
		}
		return []*sink{out}, nil
	}
	parts := make([]*sink, len(morsels))
	errs := make([]error, len(morsels))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{cc: newCancelProbe(ctx)}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(morsels) || failed.Load() {
					return
				}
				if w.cc.check() {
					errs[i] = w.cc.err()
					failed.Store(true)
					return
				}
				parts[i] = newSink()
				if err := morsels[i].run(w, parts[i]); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// merge folds a drain's sinks into one in morsel order: accumulators
// merge (appending unseen groups in first-seen order), row lists and
// probe outputs concatenate. A single sink is returned as is.
func merge(parts []*sink) (*sink, error) {
	if len(parts) == 1 {
		return parts[0], nil
	}
	n := 0
	for _, p := range parts {
		n += len(p.rows)
	}
	out := &sink{acc: parts[0].acc, rows: make([]relstore.Row, 0, n)}
	for i, p := range parts {
		if i > 0 && out.acc != nil {
			if err := out.acc.merge(p.acc); err != nil {
				return nil, err
			}
		}
		out.rows = append(out.rows, p.rows...)
		out.probed += p.probed
	}
	return out, nil
}

// openScan opens the span a drain of sc runs under, named after what
// runs: "scan" inline, "morsel-fanout" across workers.
func openScan(sp *obs.Span, sc *scanPlan, workers, morsels int) *obs.Span {
	name := "scan"
	if workers > 1 {
		name = "morsel-fanout"
	}
	s := sp.Child(name)
	s.SetAttr("table", sc.src.alias)
	s.SetAttr("access", sc.accessLabel())
	if sc.est.Planned {
		s.SetInt("est_rows", int64(sc.est.OutRows))
	}
	if workers > 1 {
		s.SetInt("morsels", int64(morsels))
		s.SetInt("workers", int64(workers))
	}
	return s
}

// scanRows drains sc inline into a row list: the driving scan of a
// join chain and every folded source's own scan.
func (en *Engine) scanRows(ctx context.Context, sc *scanPlan) ([]relstore.Row, error) {
	morsels, err := en.morsels(sc)
	if err != nil {
		return nil, err
	}
	parts, err := en.drain(ctx, morsels, 1, func() *sink { return &sink{} })
	if err != nil {
		return nil, err
	}
	return parts[0].rows, nil
}

// run drains one morsel into out.
func (m *morsel) run(w *worker, out *sink) error {
	switch {
	case m.batch != nil:
		return m.sc.runBatch(m.batch, w, out)
	case m.sc == nil:
		for _, r := range m.rows {
			if w.cc.tick() {
				return w.cc.err()
			}
			if err := out.add(r, false); err != nil {
				return err
			}
		}
		return nil
	}
	// Page morsels, index probes and whole scans all stream borrowed
	// rows (zero-copy: they alias immutable page-cache storage and
	// everything downstream treats them as read-only).
	var rowErr error
	emit := func(row relstore.Row) bool {
		rowErr = m.sc.pass(w, out, row)
		return rowErr == nil
	}
	var err error
	switch {
	case m.page != nil:
		_, err = m.page(true, emit)
	case m.sc.eqIndex != nil:
		for _, rid := range m.sc.eqIndex.Lookup([]relstore.Value{m.sc.eqVal}) {
			row, live, gerr := m.sc.src.base.GetBorrow(rid)
			if gerr != nil {
				return gerr
			}
			if live && !emit(row) {
				break
			}
		}
	default:
		err = m.sc.src.scanBorrow(m.sc.bounds, emit)
	}
	if err == nil {
		err = rowErr
	}
	return err
}

// pass runs the scan's filter on one row and feeds a survivor to out.
// The context is polled at row granularity so a cancelled query stops
// mid-scan.
func (sc *scanPlan) pass(w *worker, out *sink, row relstore.Row) error {
	if w.cc.tick() {
		return w.cc.err()
	}
	if sc.filter != nil {
		v, err := sc.filter(row)
		if err != nil {
			return err
		}
		if !v.AsBool() {
			return nil
		}
	}
	return out.add(row, false)
}

// runBatch drains one batch morsel: kernels narrow the selection
// vector column-at-a-time, survivors are materialized into the
// worker's scratch row (needed columns only — batchNeededCols marks
// everything the statement reads, so unneeded slots can hold stale
// values no consumer looks at), the filter (when a conjunct resisted
// kernelization) makes the final call, and each passing row feeds out.
func (sc *scanPlan) runBatch(m relstore.BatchFunc, w *worker, out *sink) error {
	if w.scratch == nil {
		w.scratch = make(relstore.Row, len(sc.src.schema.Columns))
	}
	bp := &sc.kernels
	var rowErr error
	_, err := m(func(b *relstore.ColBatch) bool {
		// Batches whose rows the kernels all reject never reach emit, so
		// poll once per batch too.
		if w.cc.check() {
			rowErr = w.cc.err()
			return false
		}
		// The kernels subsume the full row filter only when every
		// conjunct kernelized AND every kernel's vector is actually
		// decoded in this batch (always true by construction — kernel
		// columns are in the needed set — but a missing vector must
		// degrade to the filter, never to a wrong result).
		needFilter := bp.residual
		sel := b.Sel
		owned := false
		for ki := range bp.kernels {
			k := &bp.kernels[ki]
			vec := &b.Cols[k.col]
			if !vec.Present {
				needFilter = true
				continue
			}
			if !owned {
				// First kernel filters into the engine-owned buffer —
				// b.Sel belongs to the store and is never written.
				w.sel = w.sel[:0]
				if sel == nil {
					for i := 0; i < b.N; i++ {
						if k.pass(vec, i) {
							w.sel = append(w.sel, int32(i))
						}
					}
				} else {
					for _, i := range sel {
						if k.pass(vec, int(i)) {
							w.sel = append(w.sel, i)
						}
					}
				}
				sel, owned = w.sel, true
				continue
			}
			// Later kernels compact in place (writes trail reads).
			kept := sel[:0]
			for _, i := range sel {
				if k.pass(vec, int(i)) {
					kept = append(kept, i)
				}
			}
			sel = kept
		}

		emit := func(i int) bool {
			if w.cc.tick() {
				rowErr = w.cc.err()
				return false
			}
			b.FillRow(w.scratch, i, sc.needed)
			if sc.filter != nil && needFilter {
				v, err := sc.filter(w.scratch)
				if err != nil {
					rowErr = err
					return false
				}
				if !v.AsBool() {
					return true
				}
			}
			rowErr = out.add(w.scratch, true)
			return rowErr == nil
		}
		// sel == nil normally means "no selection: every row". But once a
		// kernel owned the buffer, nil just means the (never-grown) buffer
		// is empty — an empty selection, not a full one.
		if sel == nil && !owned {
			for i := 0; i < b.N; i++ {
				if !emit(i) {
					return false
				}
			}
		} else {
			for _, i := range sel {
				if !emit(int(i)) {
					return false
				}
			}
		}
		return true
	})
	if err == nil {
		err = rowErr
	}
	return err
}
