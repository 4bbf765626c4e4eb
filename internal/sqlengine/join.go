package sqlengine

// Join operators on the zero-copy path (DESIGN.md §8.2). A hash
// join's build side indexes borrowed rows by their appendKey encoding;
// probes encode keys into a reusable scratch buffer, so a probe
// allocates nothing for non-matching rows (map lookups keyed on
// string(scratch) do not copy the bytes) and materializes only the
// combined output row on a match. The build-inner join probes through
// the one drain, so a fused first fold fans its driving scan out over
// page morsels like any other scan.

import (
	"context"

	"archis/internal/obs"
	"archis/internal/relstore"
)

// indexJoinThreshold: below this many outer rows, an index
// nested-loop join beats building a hash table over the (possibly
// huge) inner table — the Q1/Q3 "single object" shape. It applies to
// the planner-off rule (stratIndexOrHash).
const indexJoinThreshold = 4096

// joinTable is the build side of a hash join: bucket indexes keyed by
// the encoded join key. One string key is allocated per distinct key
// value; probing is allocation-free and, because the table is
// read-only after build, safe to share across probe workers.
type joinTable struct {
	idx     map[string]int
	buckets [][]relstore.Row
}

func buildJoinTable(inner []relstore.Row, joins []equiJoin) *joinTable {
	jt := &joinTable{idx: make(map[string]int, len(inner))}
	var enc []byte
	key := make([]relstore.Value, len(joins))
	for _, r := range inner {
		for i, j := range joins {
			key[i] = r[j.newPos]
		}
		enc = appendKey(enc[:0], key)
		if b, ok := jt.idx[string(enc)]; ok {
			jt.buckets[b] = append(jt.buckets[b], r)
		} else {
			jt.idx[string(enc)] = len(jt.buckets)
			jt.buckets = append(jt.buckets, []relstore.Row{r})
		}
	}
	return jt
}

// probeScratch holds one prober's reusable buffers; concurrent
// workers must each own their own.
type probeScratch struct {
	enc []byte
	key []relstore.Value
}

func newProbeScratch(joins []equiJoin) *probeScratch {
	return &probeScratch{key: make([]relstore.Value, len(joins))}
}

// probe appends the combined rows for one outer row to out. Rows with
// a NULL key component never match (SQL equality semantics); probed
// reports whether the row had a fully non-NULL key.
func (jt *joinTable) probe(o relstore.Row, joins []equiJoin, sc *probeScratch, out []relstore.Row) (res []relstore.Row, probed bool) {
	for i, j := range joins {
		sc.key[i] = o[j.boundPos]
		if sc.key[i].IsNull() {
			return out, false
		}
	}
	sc.enc = appendKey(sc.enc[:0], sc.key)
	b, ok := jt.idx[string(sc.enc)]
	if !ok {
		return out, true
	}
	for _, m := range jt.buckets[b] {
		out = append(out, concatRow(o, m))
	}
	return out, true
}

// setFoldEst annotates a join span with the planner's estimates.
func setFoldEst(sp *obs.Span, f *foldPlan) {
	if !f.planned {
		return
	}
	sp.SetInt("est_outer", int64(f.estOuter))
	sp.SetInt("est_inner", int64(f.estInner))
	sp.SetInt("est_out", int64(f.estOut))
}

// hashJoin builds a hash table over the folded source's rows and
// probes it with the outer input: the morsels of the driving scan drv
// when the fold is fused, else (drv nil) the materialized rows as one
// morsel. The probe runs through the drain, so output order is the
// outer input's order either way.
func (en *Engine) hashJoin(ctx context.Context, drv *scanPlan, rows []relstore.Row, f *foldPlan, sp *obs.Span) ([]relstore.Row, error) {
	bs := sp.Child("join:hash-build")
	bs.SetAttr("table", f.scan.src.alias)
	bs.SetAttr("side", "inner")
	setFoldEst(bs, f)
	inner, err := en.scanRows(ctx, f.scan)
	if err != nil {
		bs.End()
		return nil, err
	}
	jt := buildJoinTable(inner, f.joins)
	bs.AddRows(int64(len(inner)), 0)
	bs.SetInt("buckets", int64(len(jt.buckets)))
	bs.End()

	ps := sp.Child("join:hash-probe")
	defer ps.End()
	outer, workers := []morsel{{rows: rows}}, 1
	if drv != nil {
		ps.SetAttr("table", drv.src.alias)
		ps.SetAttr("access", drv.accessLabel())
		if outer, err = en.morsels(drv); err != nil {
			return nil, err
		}
		workers = min(drv.workers, len(outer))
	}
	if workers > 1 {
		ps.SetInt("workers", int64(workers))
		ps.SetInt("morsels", int64(len(outer)))
	}
	parts, err := en.drain(ctx, outer, workers, func() *sink {
		return &sink{jt: jt, joins: f.joins, sc: newProbeScratch(f.joins)}
	})
	if err != nil {
		return nil, err
	}
	out, err := merge(parts)
	if err != nil {
		return nil, err
	}
	en.DB.AddJoinRows(out.probed, int64(len(out.rows)))
	ps.AddRows(out.probed, int64(len(out.rows)))
	return out.rows, nil
}

// hashJoinBuildOuter is hashJoin with the build side flipped: the
// planner picks it when the already-materialized outer input is the
// smaller estimate, so the hash table is built over the outer rows
// and the inner rows stream through it — fixing the old executor's
// fixed-build-side misplan (a 17-row outer no longer pays for hashing
// a million-row inner). Matching inner rows are bucketed per outer
// row and emitted outer-major afterwards, so the output order is
// byte-identical to the build-inner join's.
func (en *Engine) hashJoinBuildOuter(ctx context.Context, outer []relstore.Row, f *foldPlan, sp *obs.Span) ([]relstore.Row, error) {
	bs := sp.Child("join:hash-build")
	bs.SetAttr("table", f.scan.src.alias)
	bs.SetAttr("side", "outer")
	setFoldEst(bs, f)
	// Build: outer row positions keyed by encoded join key. Rows with
	// a NULL key component can never match, so they are left out.
	idx := make(map[string][]int, len(outer))
	var enc []byte
	key := make([]relstore.Value, len(f.joins))
	for i, o := range outer {
		null := false
		for k, j := range f.joins {
			key[k] = o[j.boundPos]
			if key[k].IsNull() {
				null = true
				break
			}
		}
		if null {
			continue
		}
		enc = appendKey(enc[:0], key)
		idx[string(enc)] = append(idx[string(enc)], i)
	}
	bs.AddRows(int64(len(outer)), 0)
	bs.SetInt("buckets", int64(len(idx)))
	bs.End()

	ps := sp.Child("join:hash-probe")
	defer ps.End()
	ps.SetAttr("table", f.scan.src.alias)
	inner, err := en.scanRows(ctx, f.scan)
	if err != nil {
		return nil, err
	}
	// matches[i] collects the inner rows joining outer row i; inner
	// rows are borrowed, which is safe to retain for the statement.
	matches := make([][]relstore.Row, len(outer))
	var probed, combined int64
	for _, row := range inner {
		null := false
		for k, j := range f.joins {
			key[k] = row[j.newPos]
			if key[k].IsNull() {
				null = true
				break
			}
		}
		if null {
			continue
		}
		probed++
		enc = appendKey(enc[:0], key)
		for _, oi := range idx[string(enc)] {
			matches[oi] = append(matches[oi], row)
			combined++
		}
	}
	out := make([]relstore.Row, 0, combined)
	for i, o := range outer {
		for _, m := range matches[i] {
			out = append(out, concatRow(o, m))
		}
	}
	en.DB.AddJoinRows(probed, int64(len(out)))
	ps.AddRows(probed, int64(len(out)))
	return out, nil
}

// indexJoin is the index nested-loop join on the first equi key;
// remaining keys and the folded source's own filter apply after the
// probe.
func (en *Engine) indexJoin(ctx context.Context, outer []relstore.Row, f *foldPlan) ([]relstore.Row, error) {
	cc := newCancelProbe(ctx)
	s := f.scan.src
	first := f.joins[0]
	var out []relstore.Row
	for _, o := range outer {
		if cc.tick() {
			return nil, cc.err()
		}
		probe := o[first.boundPos]
		if probe.IsNull() {
			continue
		}
		pv, err := coerce(probe, s.schema.Columns[first.newPos].Type)
		if err != nil {
			continue
		}
		for _, rid := range f.index.Lookup([]relstore.Value{pv}) {
			row, live, err := s.base.GetBorrow(rid)
			if err != nil {
				return nil, err
			}
			if !live {
				continue
			}
			match := true
			for _, j := range f.joins[1:] {
				if compareValues(o[j.boundPos], row[j.newPos]) != 0 || row[j.newPos].IsNull() {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			if f.scan.filter != nil {
				v, err := f.scan.filter(row)
				if err != nil {
					return nil, err
				}
				if !v.AsBool() {
					continue
				}
			}
			out = append(out, concatRow(o, row))
		}
	}
	return out, nil
}

// nestedLoopJoin is the Cartesian fold: every outer row with every
// row of the folded source's scan.
func (en *Engine) nestedLoopJoin(ctx context.Context, outer []relstore.Row, f *foldPlan) ([]relstore.Row, error) {
	inner, err := en.scanRows(ctx, f.scan)
	if err != nil {
		return nil, err
	}
	cc := newCancelProbe(ctx)
	// Cap the up-front allocation: a cross product's full extent can
	// be enormous, and reserving it all before the first probe would
	// delay cancellation by the whole (possibly huge) zeroing.
	capHint := len(outer) * len(inner)
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	out := make([]relstore.Row, 0, capHint)
	for _, o := range outer {
		for _, m := range inner {
			if cc.tick() {
				return nil, cc.err()
			}
			out = append(out, concatRow(o, m))
		}
	}
	return out, nil
}

// concatRow materializes one joined row.
func concatRow(o, m relstore.Row) relstore.Row {
	c := make(relstore.Row, 0, len(o)+len(m))
	c = append(c, o...)
	return append(c, m...)
}
