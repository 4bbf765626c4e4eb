package relstore

import (
	"fmt"
	"sync"
	"unsafe"
)

// The decoded-block cache holds the decoded column vectors of BlockZIP
// blocks (see internal/blockzip), one immutable ColVec per (blob
// table, block number, column), so warm queries over compressed
// storage skip the zlib inflate and the column decode, and a query
// that reads two columns of a block neither decodes nor caches the
// rest. It reuses the page cache's sharded-CLOCK design, but the
// budget is bytes rather than entries: each vector is charged its real
// footprint (footprint below), and vectors vary widely in size.
//
// Entries are immutable once published: block blobs are append-only
// (a block number is never rewritten), and ReadBlock publishes only
// vectors decoded into a fresh batch, so a get can hand the shared
// vectors to concurrent readers without copying (DESIGN.md §8.3).

// minShardBlockBytes is the target minimum per-shard byte budget when
// choosing the shard count.
const minShardBlockBytes = 256 << 10

type blockKey struct {
	store   uint64 // owning blob Table.id; ids are never reused
	blockNo int64
	col     int
}

type blockEntry struct {
	vec   ColVec
	n     int // rows in the block
	bytes int
	ref   bool // CLOCK reference bit, set on every hit
}

type blockShard struct {
	mu      sync.Mutex
	entries map[blockKey]*blockEntry
	bytes   int // sum of entry sizes in this shard
	// ring is the CLOCK ring of keys in insertion order.
	ring []blockKey
	hand int
}

type blockCache struct {
	shards      []blockShard
	shardBudget int
	mask        uint64 // len(shards) - 1; shard count is a power of two
	total       int    // configured budget in bytes; 0 disables caching
}

// newBlockCache sizes the shard array so each shard owns at least
// minShardBlockBytes of budget (exact budget for tiny caches, up to
// maxCacheShards shards for large ones).
func newBlockCache(totalBytes int) *blockCache {
	bc := &blockCache{total: totalBytes}
	if totalBytes <= 0 {
		return bc
	}
	n := 1
	for n < maxCacheShards && totalBytes/(n*2) >= minShardBlockBytes {
		n *= 2
	}
	bc.shards = make([]blockShard, n)
	bc.mask = uint64(n - 1)
	bc.shardBudget = (totalBytes + n - 1) / n
	for i := range bc.shards {
		bc.shards[i].entries = map[blockKey]*blockEntry{}
	}
	return bc
}

func (bc *blockCache) shard(k blockKey) *blockShard {
	h := k.store*0x9E3779B97F4A7C15 + uint64(k.blockNo)*0xBF58476D1CE4E5B9 + uint64(k.col)*0x94D049BB133111EB
	h ^= h >> 29
	return &bc.shards[h&bc.mask]
}

// get returns the cached vector of one block column and the block's
// row count.
func (bc *blockCache) get(k blockKey) (ColVec, int, bool) {
	if bc.total == 0 {
		return ColVec{}, 0, false
	}
	sh := bc.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[k]
	if !ok {
		return ColVec{}, 0, false
	}
	e.ref = true
	return e.vec, e.n, true
}

// put inserts one block column of n rows charged nbytes. The caller
// transfers ownership of vec's payloads to the cache: they must never
// be mutated afterwards. Entries larger than a whole shard's budget
// are not cached at all (they would evict everything and then be
// evicted themselves on the next insert).
func (bc *blockCache) put(k blockKey, vec ColVec, n, nbytes int) {
	if bc.total == 0 || nbytes > bc.shardBudget {
		return
	}
	if nbytes < 1 {
		nbytes = 1
	}
	sh := bc.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[k]; ok {
		// Blocks are immutable, so a concurrent reader decoded an
		// identical vector; keep the published one.
		e.ref = true
		return
	}
	for sh.bytes+nbytes > bc.shardBudget {
		if !sh.evictOne() {
			break
		}
	}
	sh.entries[k] = &blockEntry{vec: vec, n: n, bytes: nbytes}
	sh.ring = append(sh.ring, k)
	sh.bytes += nbytes
}

// evictOne runs the clock hand until one entry is evicted: referenced
// entries get a second chance (ref cleared), unreferenced entries are
// removed.
func (sh *blockShard) evictOne() bool {
	for len(sh.ring) > 0 {
		if sh.hand >= len(sh.ring) {
			sh.hand = 0
		}
		k := sh.ring[sh.hand]
		e, ok := sh.entries[k]
		if !ok {
			sh.ring = append(sh.ring[:sh.hand], sh.ring[sh.hand+1:]...)
			continue
		}
		if e.ref {
			e.ref = false
			sh.hand++
			continue
		}
		delete(sh.entries, k)
		sh.ring = append(sh.ring[:sh.hand], sh.ring[sh.hand+1:]...)
		sh.bytes -= e.bytes
		return true
	}
	return false
}

// bytesUsed reports the cached bytes across all shards.
func (bc *blockCache) bytesUsed() int {
	n := 0
	for i := range bc.shards {
		sh := &bc.shards[i]
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// entryCount reports the number of cached vectors across all shards.
func (bc *blockCache) entryCount() int {
	n := 0
	for i := range bc.shards {
		sh := &bc.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// footprint is the memory a vector holds: its header, its payload
// arrays by capacity, and the string and byte payloads they reference.
// Strings are charged once per row, an upper bound when a block's
// dictionary shares one string among many rows.
func (v *ColVec) footprint() int {
	n := int(unsafe.Sizeof(*v)) + cap(v.Kinds) + 8*cap(v.I) + 8*cap(v.F) +
		int(unsafe.Sizeof(""))*cap(v.S) + int(unsafe.Sizeof(Value{}))*cap(v.Aux)
	for _, s := range v.S {
		n += len(s)
	}
	for _, a := range v.Aux {
		n += len(a.S) + len(a.B)
	}
	return n
}

// ---- Database wiring ----

// SetBlockCacheBytes sets the decoded-block cache budget in bytes;
// 0 (the default) disables the cache entirely so every compressed
// read pays inflate + decode, which keeps cold-methodology numbers
// honest unless a deployment opts in.
func (db *Database) SetBlockCacheBytes(n int) {
	db.blockCacheCap.Store(int64(n))
	db.blockCache.Store(newBlockCache(n))
}

// BlockCacheBytes reports the bytes currently held by the decoded-block
// cache.
func (db *Database) BlockCacheBytes() int { return db.blockCache.Load().bytesUsed() }

// CachedVectors reports how many decoded block columns are currently
// cached.
func (db *Database) CachedVectors() int { return db.blockCache.Load().entryCount() }

// ReadBlock sets b to the needed columns (nil = all ncols) of block
// blockNo of the blob table store. Cached vectors are taken from the
// decoded-block cache; when any needed column is missing, decode is
// called once with the missing columns and must decode them into dst,
// a fresh batch nothing else references. Its vectors are then
// published to the cache and must never be mutated again. Every column
// of b either shares a published vector or is absent (Present=false),
// and b.Sel is nil. With a budget configured, each call counts one
// cache hit (every needed column was cached) or one miss.
func (db *Database) ReadBlock(store *Table, blockNo int64, ncols int, needed []bool, b *ColBatch,
	decode func(missing []bool, dst *ColBatch) error) error {
	bc := db.blockCache.Load()
	if cap(b.Cols) < ncols {
		b.Cols = make([]ColVec, ncols)
	}
	b.N, b.Sel, b.Cols = 0, nil, b.Cols[:ncols]
	wanted := func(c int) bool { return needed == nil || c < len(needed) && needed[c] }
	found, missing := 0, 0
	for c := range b.Cols {
		b.Cols[c] = ColVec{}
		if !wanted(c) {
			continue
		}
		if vec, n, ok := bc.get(blockKey{store.id, blockNo, c}); ok {
			b.Cols[c], b.N = vec, n
			found++
		} else {
			missing++
		}
	}
	hit := found > 0 && missing == 0
	if bc.total != 0 {
		if hit {
			db.stats.blockCacheHits.Add(1)
		} else {
			db.stats.blockCacheMisses.Add(1)
		}
	}
	if hit {
		return nil
	}
	decodeCols := make([]bool, ncols)
	for c := range decodeCols {
		decodeCols[c] = wanted(c) && !b.Cols[c].Present
	}
	var fresh ColBatch
	if err := decode(decodeCols, &fresh); err != nil {
		return err
	}
	if found > 0 && fresh.N != b.N {
		return fmt.Errorf("relstore: block %d decodes %d rows, its cached columns hold %d", blockNo, fresh.N, b.N)
	}
	b.N = fresh.N
	for c, dec := range decodeCols {
		if !dec || c >= len(fresh.Cols) || !fresh.Cols[c].Present {
			continue
		}
		vec := fresh.Cols[c]
		b.Cols[c] = vec
		bc.put(blockKey{store.id, blockNo, c}, vec, fresh.N, vec.footprint())
	}
	return nil
}
