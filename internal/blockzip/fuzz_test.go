package blockzip

import (
	"bytes"
	"testing"

	"archis/internal/relstore"
	"archis/internal/temporal"
)

// FuzzCompressRoundTrip ensures arbitrary record streams survive
// compression: framing, adaptive block fitting and padding must never
// lose or corrupt a record.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte("hello world"), 10, 512)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, 3, 4000)
	f.Add(bytes.Repeat([]byte("abc"), 500), 7, 1024)
	f.Fuzz(func(t *testing.T, data []byte, nRecords, blockSize int) {
		if nRecords <= 0 || nRecords > 200 || len(data) == 0 {
			return
		}
		if blockSize < 128 || blockSize > 1<<16 {
			return
		}
		// Slice data into nRecords overlapping records.
		records := make([][]byte, nRecords)
		for i := range records {
			lo := (i * 13) % len(data)
			hi := lo + 1 + (i*31)%64
			if hi > len(data) {
				hi = len(data)
			}
			records[i] = data[lo:hi]
		}
		blocks, err := Compress(records, blockSize)
		if err != nil {
			t.Fatalf("compress: %v", err)
		}
		var got [][]byte
		for _, b := range blocks {
			recs, err := Decompress(b.Data)
			if err != nil {
				t.Fatalf("decompress: %v", err)
			}
			got = append(got, recs...)
		}
		if len(got) != len(records) {
			t.Fatalf("%d records in, %d out", len(records), len(got))
		}
		for i := range records {
			if !bytes.Equal(records[i], got[i]) {
				t.Fatalf("record %d corrupted", i)
			}
		}
	})
}

// FuzzBlockCacheRoundTrip pushes arbitrary rows through both block
// encodings (legacy row blob and columnar) and then through the block
// reader twice: once cold (a cache miss: inflate + decode into fresh
// vectors) and once warm (a hit on the published vectors when the
// budget holds them, another miss otherwise). Re-encoding each returned
// row must reproduce the original record bytes, so a cache that
// returned stale, truncated or aliased vectors would fail, and the hit
// and decompression counters must agree with each other.
func FuzzBlockCacheRoundTrip(f *testing.F) {
	f.Add([]byte("hello world block cache"), 5, 1<<20)
	f.Add(bytes.Repeat([]byte{0, 255, 1, 254}, 300), 40, 4096)
	f.Add([]byte("x"), 1, 0) // cache disabled: both reads take the miss path
	f.Fuzz(func(t *testing.T, data []byte, nRows, cacheBytes int) {
		if nRows <= 0 || nRows > 100 || len(data) == 0 {
			return
		}
		if cacheBytes < 0 || cacheBytes > 1<<24 {
			return
		}
		rows := make([]relstore.Row, nRows)
		records := make([][]byte, nRows)
		for i := range records {
			lo := (i * 17) % len(data)
			hi := lo + 1 + (i*29)%48
			if hi > len(data) {
				hi = len(data)
			}
			rows[i] = relstore.Row{
				relstore.Int(int64(i)),
				relstore.String_(string(data[lo:hi])),
				relstore.Bytes(data[lo:hi]),
			}
			records[i] = relstore.EncodeRow(nil, rows[i], true)
		}
		legacy, err := Compress(records, 512)
		if err != nil {
			t.Fatalf("compress: %v", err)
		}
		columnar, err := CompressColumnar(rows, 512)
		if err != nil {
			t.Fatalf("compress columnar: %v", err)
		}

		for _, enc := range []struct {
			name   string
			blocks []Block
		}{{"legacy", legacy}, {"columnar", columnar}} {
			cs := blockReader(t, cacheBytes)
			next := 0
			for bi, blk := range enc.blocks {
				want := records[next : next+blk.Records]
				for p, pass := range []string{"cold(miss)", "warm(hit-or-miss)"} {
					st, dec := cs.db.Stats(), cs.DecompressionCount()
					got, err := readRows(cs, int64(bi+1), blk.Data, 3)
					if err != nil {
						t.Fatalf("%s %s: %v", enc.name, pass, err)
					}
					if len(got) != blk.Records {
						t.Fatalf("%s %s: %d rows, block holds %d", enc.name, pass, len(got), blk.Records)
					}
					for i, r := range got {
						if !bytes.Equal(relstore.EncodeRow(nil, r, true), want[i]) {
							t.Fatalf("%s %s: block record %d (global %d) corrupted", enc.name, pass, i, next+i)
						}
					}
					d := cs.db.Stats().Sub(st)
					decoded := cs.DecompressionCount() - dec
					if (d.BlockCacheHits == 1) == (decoded == 1) {
						t.Fatalf("%s %s: %d hits but %d decompressions", enc.name, pass, d.BlockCacheHits, decoded)
					}
					// A block's vectors are a few KiB, far below the
					// shard budget of a 1 MiB cache, so warm must hit.
					switch {
					case p == 0 && d.BlockCacheHits != 0:
						t.Fatalf("%s %s: first read of block %d hit the cache", enc.name, pass, bi+1)
					case p == 1 && cacheBytes >= 1<<20 && d.BlockCacheHits != 1:
						t.Fatalf("%s %s: block %d missed a 1 MiB cache", enc.name, pass, bi+1)
					}
				}
				next += blk.Records
			}
		}
	})
}

// FuzzDecompress ensures corrupted blocks are rejected, not paniced on.
func FuzzDecompress(f *testing.F) {
	good, _ := CompressWhole([][]byte{[]byte("abc"), []byte("defg")})
	f.Add(good.Data)
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Decompress(data) // must not panic
	})
}

// FuzzColumnarRoundTrip drives arbitrary row shapes through the
// columnar codec: every kind the encoder accepts (ints, floats, bools,
// dates including Forever, dictionary strings — possibly all-empty —
// NULLs and opaque bytes), uniform and mixed columns, many block
// sizes. Encoded blocks must decode to identical rows, and a corrupted
// block must produce an error, never a panic.
func FuzzColumnarRoundTrip(f *testing.F) {
	f.Add([]byte("seed"), 10, 2, 512, false)
	f.Add([]byte{0xff, 0x00, 0x7f}, 50, 5, 256, true)
	f.Add([]byte("abcabcabc"), 3, 8, 4096, false)
	f.Fuzz(func(t *testing.T, data []byte, nrows, ncols, blockSize int, corrupt bool) {
		if nrows <= 0 || nrows > 300 || ncols <= 0 || ncols > 10 {
			return
		}
		if blockSize < 128 || blockSize > 1<<16 {
			return
		}
		if len(data) == 0 {
			data = []byte{0}
		}
		at := func(i int) byte { return data[i%len(data)] }
		rows := make([]relstore.Row, nrows)
		for i := range rows {
			row := make(relstore.Row, ncols)
			for c := range row {
				b := at(i*7 + c*3)
				switch b % 8 {
				case 0:
					row[c] = relstore.Int(int64(at(i+c)) * int64(b))
				case 1:
					row[c] = relstore.Float(float64(int8(b)) / 3)
				case 2:
					row[c] = relstore.Bool(b&1 == 0)
				case 3:
					// Dates, sometimes the Forever sentinel.
					if b&2 == 0 {
						row[c] = relstore.DateV(temporal.Forever)
					} else {
						row[c] = relstore.DateV(temporal.Date(int64(b) * 97))
					}
				case 4:
					// Strings; b&2==0 keeps them all empty, exercising a
					// dictionary whose only entry is "".
					if b&2 == 0 {
						row[c] = relstore.String_("")
					} else {
						lo := int(b) % len(data)
						row[c] = relstore.String_(string(data[lo : lo+(len(data)-lo)%7]))
					}
				case 5:
					row[c] = relstore.Null
				case 6:
					lo := int(b) % len(data)
					row[c] = relstore.Bytes(data[lo:])
				default:
					row[c] = relstore.Int(-int64(b) << (b % 40))
				}
			}
			rows[i] = row
		}
		blocks, err := CompressColumnar(rows, blockSize)
		if err != nil {
			t.Fatalf("compress: %v", err)
		}
		cs := blockReader(t, 1<<20)
		var got []relstore.Row
		for bi, blk := range blocks {
			if !IsColumnarBlock(blk.Data) {
				t.Fatal("columnar block without columnar magic")
			}
			dec, err := readRows(cs, int64(bi+1), blk.Data, ncols)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			got = append(got, dec...)
		}
		if len(got) != len(rows) {
			t.Fatalf("%d rows in, %d out", len(rows), len(got))
		}
		for i := range rows {
			want := relstore.EncodeRow(nil, rows[i], true)
			have := relstore.EncodeRow(nil, got[i], true)
			if !bytes.Equal(want, have) {
				t.Fatalf("row %d corrupted by columnar round trip", i)
			}
		}
		if corrupt && len(blocks) > 0 {
			// Flip one byte inside the first block; the decoder must
			// reject or misdecode gracefully, never panic.
			bad := bytes.Clone(blocks[0].Data)
			pos := int(at(0)) % len(bad)
			bad[pos] ^= 0x55
			_, _ = readRows(cs, int64(len(blocks)+1), bad, ncols)
		}
	})
}
