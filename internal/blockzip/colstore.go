package blockzip

import (
	"sync/atomic"

	"archis/internal/relstore"
	"archis/internal/temporal"
)

// The read side. Every compressed block a query touches goes through
// readBlock, which hands out the block's needed columns as immutable
// vectors from the decoded-block cache, decoding only the missing ones.
// ScanBatches streams those vectors as column batches; ScanMorsels (and
// Scan, which runs the morsels in order) copies the rows that pass the
// store filter out of them. Concatenating the selected rows of every
// batch in morsel order reproduces exactly the row sequence of the
// morsels, the determinism contract the engine's drain relies on.

// batchRows is the target batch size for row-backed batches (the
// uncompressed side). Compressed blocks emit one batch per block,
// whatever their row count.
const batchRows = 1024

// storeFilter is the rule every read path applies on top of storage:
// bounds on segno (col 0) restrict the segment range, a forever-tend
// row below the top of that range is a stale carried copy (the dedup
// rule of segment.Store.Scan), and an id equality bound (col 1) keeps
// one object. It reads raw I payloads (row[0].I etc.), so NULLs
// behave identically on rows and vectors.
type storeFilter struct {
	segLo, segHi int64
	hasID        bool
	id           int64
}

func (cs *CompressedStore) newStoreFilter(bounds []relstore.ZoneBound) storeFilter {
	f := storeFilter{segLo: 1, segHi: cs.Seg.LiveSegment()}
	for _, zb := range bounds {
		switch {
		case zb.Col == 0 && zb.Op == "=":
			f.segLo, f.segHi = zb.Bound, zb.Bound
		case zb.Col == 0 && zb.Op == ">=" && zb.Bound > f.segLo:
			f.segLo = zb.Bound
		case zb.Col == 0 && zb.Op == "<=" && zb.Bound < f.segHi:
			f.segHi = zb.Bound
		case zb.Col == 1 && zb.Op == "=":
			f.hasID, f.id = true, zb.Bound
		}
	}
	return f
}

func (f *storeFilter) keep(row relstore.Row) bool {
	sg := row[0].I
	return sg >= f.segLo && sg <= f.segHi &&
		!(sg < f.segHi && row[4].Date().IsForever()) &&
		(!f.hasID || row[1].I == f.id)
}

// sel writes the rows of b that pass the filter into dst[:0]. b must
// hold the segno (0) and tend (4) vectors, and id (1) under an id
// bound.
func (f *storeFilter) sel(b *relstore.ColBatch, dst []int32) []int32 {
	forever := int64(temporal.Forever)
	segv, idv, tendv := &b.Cols[0], &b.Cols[1], &b.Cols[4]
	dst = dst[:0]
	for i := 0; i < b.N; i++ {
		sg := vecI(segv, i)
		if sg < f.segLo || sg > f.segHi {
			continue
		}
		if sg < f.segHi && vecI(tendv, i) == forever {
			continue
		}
		if f.hasID && vecI(idv, i) != f.id {
			continue
		}
		dst = append(dst, int32(i))
	}
	return dst
}

// vecI reads the raw int payload of row i, mirroring the row filter's
// direct .I access: Int/Date/Bool carry it in the I vector, everything
// else (NULL included) reconstructs the Value and takes its I field.
func vecI(v *relstore.ColVec, i int) int64 {
	if !v.Present {
		return 0
	}
	switch v.KindAt(i) {
	case relstore.TypeInt, relstore.TypeDate, relstore.TypeBool:
		return v.I[i]
	default:
		return v.ValueAt(i).I
	}
}

// readBlock is the one read-side decoder of a BlockZIP block: it sets
// b to the needed columns (nil = all ncols) of block blockNo, stored as
// blob, through the decoded-block cache (relstore.Database.ReadBlock),
// whether or not a cache budget is configured. Only the columns the
// cache lacks are decoded, into fresh vectors: a columnar block decodes
// just those sections; a legacy row blob inflates, decodes its records
// and pivots the missing columns out of them. Each decode counts one
// decompression.
func (cs *CompressedStore) readBlock(blockNo int64, blob []byte, ncols int, needed []bool, b *relstore.ColBatch) error {
	return cs.db.ReadBlock(cs.blob, blockNo, ncols, needed, b, func(missing []bool, dst *relstore.ColBatch) error {
		if IsColumnarBlock(blob) {
			if err := DecodeColumnarBatch(blob, missing, dst); err != nil {
				return err
			}
		} else {
			recs, err := Decompress(blob)
			if err != nil {
				return err
			}
			// One Value arena for the block's records; the pivot copies
			// the Values out, and decoded Values own their payloads (the
			// codec copies), so nothing aliases the inflate buffer.
			arena := make([]relstore.Value, 0, ncols*len(recs))
			rows := make([]relstore.Row, len(recs))
			for i, enc := range recs {
				from := len(arena)
				if arena, _, _, err = relstore.DecodeRowInto(arena, enc); err != nil {
					return err
				}
				rows[i] = relstore.Row(arena[from:len(arena):len(arena)])
			}
			dst.SetFromRows(rows, ncols, missing)
		}
		atomic.AddInt64(cs.decompCounter(), 1)
		return nil
	})
}

// rangeBlocks streams one compressed segment range block by block:
// every block the id bound cannot prune is read through readBlock and
// narrowed by the store filter, and each block with a surviving row
// goes to fn with b.Sel naming the survivors. It reports whether fn
// stopped the range.
func (cs *CompressedStore) rangeBlocks(rg srange, f *storeFilter, ncols int, needed []bool,
	fn func(*relstore.ColBatch) bool) (bool, error) {
	blobBounds := []relstore.ZoneBound{
		{Col: 0, Op: ">=", Bound: rg.startBlock},
		{Col: 0, Op: "<=", Bound: rg.endBlock},
	}
	target := sid(rg.segno, f.id)
	if f.hasID {
		blobBounds = append(blobBounds,
			relstore.ZoneBound{Col: 1, Op: "<=", Bound: target},
			relstore.ZoneBound{Col: 2, Op: ">=", Bound: target})
	}
	var batch relstore.ColBatch
	var selBuf []int32
	stopped := false
	var blockErr error
	err := cs.blob.ScanBorrow(blobBounds, func(_ relstore.RID, row relstore.Row) bool {
		blockNo := row[0].I
		if blockNo < rg.startBlock || blockNo > rg.endBlock {
			return true
		}
		if f.hasID && (row[1].I > target || row[2].I < target) {
			return true
		}
		if blockErr = cs.readBlock(blockNo, row[3].B, ncols, needed, &batch); blockErr != nil {
			return false
		}
		if selBuf = f.sel(&batch, selBuf); len(selBuf) == 0 {
			return true
		}
		batch.Sel = selBuf
		if !fn(&batch) {
			stopped = true
			return false
		}
		return true
	})
	if err == nil {
		err = blockErr
	}
	return stopped, err
}

// ScanMorsels implements relstore.MorselSource: the uncompressed
// side's morsels (live segment plus any not-yet-compressed frozen
// rows) come first, wrapped with the store filter, followed by one
// morsel per compressed segment range (newest first) that reads its
// blocks through readBlock, so segment decompression parallelizes
// across workers. A compressed morsel copies the rows that pass the
// filter into one fresh arena per block: they alias no cached vector
// and stay valid for the whole query, so borrowed and copied scans
// share them.
func (cs *CompressedStore) ScanMorsels(bounds []relstore.ZoneBound) ([]relstore.MorselFunc, error) {
	f := cs.newStoreFilter(bounds)
	ncols := len(cs.Schema().Columns)
	segMorsels, err := cs.Seg.ScanMorsels(bounds)
	if err != nil {
		return nil, err
	}
	out := make([]relstore.MorselFunc, 0, len(segMorsels)+8)
	for _, m := range segMorsels {
		m := m
		out = append(out, func(borrow bool, fn func(relstore.Row) bool) (bool, error) {
			return m(borrow, func(row relstore.Row) bool { return !f.keep(row) || fn(row) })
		})
	}

	ranges, err := cs.ranges(f.segLo, f.segHi)
	if err != nil {
		return nil, err
	}
	for _, rg := range ranges {
		rg := rg
		out = append(out, func(_ bool, fn func(relstore.Row) bool) (bool, error) {
			return cs.rangeBlocks(rg, &f, ncols, nil, func(b *relstore.ColBatch) bool {
				arena := make([]relstore.Value, len(b.Sel)*ncols)
				for k, i := range b.Sel {
					row := relstore.Row(arena[k*ncols : (k+1)*ncols : (k+1)*ncols])
					b.FillRow(row, int(i), nil)
					if !fn(row) {
						return false
					}
				}
				return true
			})
		})
	}
	return out, nil
}

// ScanBatches implements the engine's batch source: uncompressed
// morsels first (live segment plus not-yet-compressed frozen rows),
// adapted row-to-batch, then one batch morsel per compressed segment
// range, newest segment first, emitting one batch per block. needed
// marks the columns the consumer reads (nil = all); the store adds the
// columns its own filter needs, and blocks read only that union.
func (cs *CompressedStore) ScanBatches(bounds []relstore.ZoneBound, needed []bool) ([]relstore.BatchFunc, error) {
	f := cs.newStoreFilter(bounds)
	ncols := len(cs.Schema().Columns)
	storeNeeded := needed
	if needed != nil {
		storeNeeded = make([]bool, ncols)
		copy(storeNeeded, needed)
		storeNeeded[0] = true
		storeNeeded[4] = true
		if f.hasID {
			storeNeeded[1] = true
		}
	}

	segMorsels, err := cs.Seg.ScanMorsels(bounds)
	if err != nil {
		return nil, err
	}
	out := make([]relstore.BatchFunc, 0, len(segMorsels)+8)
	for _, m := range segMorsels {
		m := m
		out = append(out, func(fn func(*relstore.ColBatch) bool) (bool, error) {
			return cs.rowMorselBatches(m, &f, ncols, storeNeeded, fn)
		})
	}

	ranges, err := cs.ranges(f.segLo, f.segHi)
	if err != nil {
		return nil, err
	}
	for _, rg := range ranges {
		rg := rg
		out = append(out, func(fn func(*relstore.ColBatch) bool) (bool, error) {
			return cs.rangeBlocks(rg, &f, ncols, storeNeeded, func(b *relstore.ColBatch) bool {
				cs.db.CountColBatch(int64(len(b.Sel)))
				return fn(b)
			})
		})
	}
	return out, nil
}

// rowMorselBatches adapts one row morsel (the uncompressed side) into
// batches: rows passing the store filter accumulate and flush as
// row-backed batches of up to batchRows. Borrowed rows stay valid for
// the whole read (storage is immutable during a query) and the batch
// copies their Values out at flush.
func (cs *CompressedStore) rowMorselBatches(m relstore.MorselFunc, f *storeFilter, ncols int, storeNeeded []bool,
	fn func(*relstore.ColBatch) bool) (bool, error) {
	var batch relstore.ColBatch
	buf := make([]relstore.Row, 0, batchRows)
	stopped := false
	flush := func() bool {
		if len(buf) == 0 {
			return true
		}
		batch.SetFromRows(buf, ncols, storeNeeded)
		cs.db.CountColBatch(int64(len(buf)))
		ok := fn(&batch)
		buf = buf[:0]
		return ok
	}
	_, err := m(true, func(row relstore.Row) bool {
		if !f.keep(row) {
			return true
		}
		buf = append(buf, row)
		if len(buf) >= batchRows && !flush() {
			stopped = true
			return false
		}
		return true
	})
	if err != nil {
		return stopped, err
	}
	if !stopped && !flush() {
		stopped = true
	}
	return stopped, nil
}
