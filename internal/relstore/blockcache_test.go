package relstore

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func blockCacheTable(t *testing.T, db *Database) *Table {
	t.Helper()
	tbl, err := db.CreateTable(Schema{Name: "blobs", Columns: []Column{
		{Name: "blockno", Type: TypeInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// blockCacheVec is a two-row vector tagged with n.
func blockCacheVec(n int64) ColVec {
	return ColVec{Present: true, Kind: TypeInt, I: []int64{n, n + 1}}
}

// blockContent is the synthetic content of block n: three columns of
// distinct kinds, values derived from n so blocks never coincide.
func blockContent(n int64) []Row {
	rows := make([]Row, 6)
	for i := range rows {
		v := n*1000 + int64(i)
		rows[i] = Row{Int(v), String_(fmt.Sprintf("s%d", v)), Float(float64(v) / 4)}
	}
	return rows
}

// blockDecoder decodes block n the way a legacy row blob does (rows
// pivoted by SetFromRows) and counts its calls.
func blockDecoder(n int64, calls *atomic.Int64) func([]bool, *ColBatch) error {
	return func(missing []bool, dst *ColBatch) error {
		calls.Add(1)
		dst.SetFromRows(blockContent(n), 3, missing)
		return nil
	}
}

func TestBlockCacheDisabledByDefault(t *testing.T) {
	db := NewDatabase()
	tbl := blockCacheTable(t, db)
	var calls atomic.Int64
	var b ColBatch
	for i := 0; i < 2; i++ {
		if err := db.ReadBlock(tbl, 1, 3, nil, &b, blockDecoder(1, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("disabled cache decoded %d times over two reads, want 2", calls.Load())
	}
	st := db.Stats()
	if st.BlockCacheHits != 0 || st.BlockCacheMisses != 0 {
		t.Fatalf("disabled cache counted hits/misses: %+v", st)
	}
	if db.CachedVectors() != 0 {
		t.Fatalf("disabled cache holds %d vectors", db.CachedVectors())
	}
}

// TestBlockCacheHitMissAndStats: a read counts one hit only when every
// needed column was cached; a partial hit decodes just the missing
// columns and counts one miss.
func TestBlockCacheHitMissAndStats(t *testing.T) {
	db := NewDatabase()
	tbl := blockCacheTable(t, db)
	db.SetBlockCacheBytes(1 << 20)
	var calls atomic.Int64
	var b ColBatch
	read := func(needed []bool) {
		t.Helper()
		if err := db.ReadBlock(tbl, 1, 3, needed, &b, func(missing []bool, dst *ColBatch) error {
			if calls.Load() > 0 && missing[0] {
				t.Errorf("cached column 0 decoded again (missing %v)", missing)
			}
			return blockDecoder(1, &calls)(missing, dst)
		}); err != nil {
			t.Fatal(err)
		}
	}

	read([]bool{true, false, false}) // miss: decodes column 0 only
	if !b.Cols[0].Present || b.Cols[1].Present || b.Cols[2].Present {
		t.Fatalf("projection not honoured: present %v %v %v", b.Cols[0].Present, b.Cols[1].Present, b.Cols[2].Present)
	}
	want := b.Cols[0].footprint()
	read([]bool{true, false, false}) // hit
	read([]bool{true, true, false})  // miss: column 1 decoded, column 0 from cache
	read(nil)                        // miss: column 2
	read(nil)                        // hit
	if calls.Load() != 3 {
		t.Fatalf("%d decodes, want 3", calls.Load())
	}
	rows := blockContent(1)
	if b.N != len(rows) {
		t.Fatalf("batch holds %d rows, want %d", b.N, len(rows))
	}
	for i, r := range rows {
		for c := range r {
			if got := b.Cols[c].ValueAt(i); !reflect.DeepEqual(got, r[c]) {
				t.Fatalf("row %d col %d = %v, want %v", i, c, got, r[c])
			}
		}
	}
	st := db.Stats()
	if st.BlockCacheHits != 2 || st.BlockCacheMisses != 3 {
		t.Fatalf("hits=%d misses=%d, want 2/3", st.BlockCacheHits, st.BlockCacheMisses)
	}
	if db.CachedVectors() != 3 {
		t.Fatalf("CachedVectors %d, want 3", db.CachedVectors())
	}
	if want+b.Cols[1].footprint()+b.Cols[2].footprint() != int(st.BlockCacheBytes) {
		t.Fatalf("bytes gauge %d, want the vectors' footprints", st.BlockCacheBytes)
	}
}

func TestBlockCacheByteBudgetEviction(t *testing.T) {
	const budget = 10_000
	bc := newBlockCache(budget)
	for i := int64(0); i < 100; i++ {
		bc.put(blockKey{1, i, 0}, blockCacheVec(i), 2, 1000)
	}
	if used := bc.bytesUsed(); used > budget {
		t.Fatalf("cache holds %d bytes, budget %d", used, budget)
	}
	if n := bc.entryCount(); n == 0 {
		t.Fatal("eviction emptied the cache entirely")
	}
	// Every surviving entry must still return its own vector.
	hits := 0
	for i := int64(0); i < 100; i++ {
		if vec, _, ok := bc.get(blockKey{1, i, 0}); ok {
			hits++
			if vec.I[0] != i {
				t.Fatalf("block %d returned the vector of block %d", i, vec.I[0])
			}
		}
	}
	if hits != bc.entryCount() {
		t.Fatalf("%d hits but %d entries", hits, bc.entryCount())
	}
}

func TestBlockCacheSecondChance(t *testing.T) {
	bc := newBlockCache(4000) // single shard at this size
	bc.put(blockKey{1, 1, 0}, blockCacheVec(1), 2, 1500)
	bc.put(blockKey{1, 2, 0}, blockCacheVec(2), 2, 1500)
	// Touch block 1 so it carries the reference bit.
	if _, _, ok := bc.get(blockKey{1, 1, 0}); !ok {
		t.Fatal("block 1 missing before eviction")
	}
	// Inserting a third block forces an eviction; the clock should
	// spare referenced block 1 and take block 2.
	bc.put(blockKey{1, 3, 0}, blockCacheVec(3), 2, 1500)
	if _, _, ok := bc.get(blockKey{1, 1, 0}); !ok {
		t.Fatal("referenced block 1 was evicted before unreferenced block 2")
	}
	if _, _, ok := bc.get(blockKey{1, 2, 0}); ok {
		t.Fatal("unreferenced block 2 survived over referenced block 1")
	}
}

func TestBlockCacheOversizedEntrySkipped(t *testing.T) {
	bc := newBlockCache(1000)
	bc.put(blockKey{1, 1, 0}, blockCacheVec(1), 2, 5000)
	if _, _, ok := bc.get(blockKey{1, 1, 0}); ok {
		t.Fatal("entry larger than the shard budget was cached")
	}
	if bc.bytesUsed() != 0 {
		t.Fatalf("oversized entry counted %d bytes", bc.bytesUsed())
	}
}

func TestBlockCacheDropCaches(t *testing.T) {
	db := NewDatabase()
	tbl := blockCacheTable(t, db)
	db.SetBlockCacheBytes(1 << 20)
	var calls atomic.Int64
	var b ColBatch
	read := func() {
		t.Helper()
		if err := db.ReadBlock(tbl, 1, 3, nil, &b, blockDecoder(1, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	read()
	db.DropCaches()
	if db.CachedVectors() != 0 {
		t.Fatalf("DropCaches left %d vectors cached", db.CachedVectors())
	}
	read()
	if calls.Load() != 2 {
		t.Fatal("hit after DropCaches")
	}
	// The configured budget survives the drop: the cache refilled.
	read()
	if calls.Load() != 2 {
		t.Fatal("cache did not refill after DropCaches")
	}
}

// TestBlockCacheConcurrent hammers reads and drops from many
// goroutines; run with -race. Correctness check: block n's batch must
// hold block n's values, whether it came from the cache or a decode.
func TestBlockCacheConcurrent(t *testing.T) {
	db := NewDatabase()
	tbl := blockCacheTable(t, db)
	db.SetBlockCacheBytes(64 << 10)

	const goroutines = 8
	const rounds = 500
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var calls atomic.Int64
			var b ColBatch
			for r := 0; r < rounds; r++ {
				n := int64((g*rounds + r) % 37)
				needed := []bool{true, r%2 == 0, r%3 == 0}
				if err := db.ReadBlock(tbl, n, 3, needed, &b, blockDecoder(n, &calls)); err != nil {
					errc <- err
					return
				}
				if got := b.Cols[0].I[0]; got != n*1000 {
					errc <- fmt.Errorf("block %d returned the vector of block %d", n, got/1000)
					return
				}
				if g == 0 && r%100 == 99 {
					db.DropCaches()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// cloneVec deep-copies a vector's payloads.
func cloneVec(v ColVec) ColVec {
	v.Kinds = slices.Clone(v.Kinds)
	v.I = slices.Clone(v.I)
	v.F = slices.Clone(v.F)
	v.S = slices.Clone(v.S)
	v.Aux = slices.Clone(v.Aux)
	return v
}

// TestBlockCacheHandedOutVectorsImmutable: a vector the cache handed
// out stays bit-identical while the same batch is reused for later
// misses on the same block (other columns) and on neighbouring blocks,
// under a budget small enough to evict. A reader that decoded into the
// caller's batch would overwrite the cached vector's backing arrays.
func TestBlockCacheHandedOutVectorsImmutable(t *testing.T) {
	db := NewDatabase()
	tbl := blockCacheTable(t, db)
	db.SetBlockCacheBytes(2 << 10)
	var calls atomic.Int64
	var b ColBatch
	read := func(n int64, needed []bool) {
		t.Helper()
		if err := db.ReadBlock(tbl, n, 3, needed, &b, blockDecoder(n, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	type held struct{ vec, snap ColVec }
	var kept []held
	keep := func(c int) {
		kept = append(kept, held{b.Cols[c], cloneVec(b.Cols[c])})
	}

	read(1, []bool{true, false, false})
	keep(0)
	read(1, []bool{true, true, false}) // column 0 hits, column 1 decodes
	keep(0)
	keep(1)
	for _, n := range []int64{2, 0, 1, 3, 2, 1} {
		read(n, nil)
		keep(2)
	}
	read(1, []bool{false, true, true})
	if calls.Load() < 4 {
		t.Fatalf("only %d decodes: the sequence never missed", calls.Load())
	}
	for i, h := range kept {
		if !reflect.DeepEqual(h.vec, h.snap) {
			t.Fatalf("handed-out vector %d changed after later reads:\n got %+v\nwant %+v", i, h.vec, h.snap)
		}
	}
}
