package blockzip

import (
	"testing"

	"archis/internal/relstore"
	"archis/internal/temporal"
)

// Cold per-block read cost, columnar vs legacy row blobs, on the
// attr-table shape (segno, id, value, tstart, tend) the temporal
// queries scan. Each op reads every block of a ~4096-row history
// through the block reader with the cache off, so every block decodes
// into fresh vectors; divide allocs/op by benchScanRows for
// allocs/row.
const benchScanRows = 4096

func benchScanData(b *testing.B) []relstore.Row {
	b.Helper()
	day := temporal.MustParseDate("1985-01-01")
	rows := make([]relstore.Row, benchScanRows)
	for i := range rows {
		end := relstore.DateV(day.AddDays(i%900 + 30))
		if i%3 == 0 {
			end = relstore.DateV(temporal.Forever)
		}
		rows[i] = relstore.Row{
			relstore.Int(int64(i/1024 + 1)),
			relstore.Int(int64(100000 + i%1024)),
			relstore.Int(int64(30000 + (i*7919)%40000)),
			relstore.DateV(day.AddDays(i % 900)),
			end,
		}
	}
	return rows
}

// benchColdScan reads every block through readBlock, cache off.
func benchColdScan(b *testing.B, blocks []Block) {
	cs := blockReader(b, 0)
	var batch relstore.ColBatch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for bi, blk := range blocks {
			if err := cs.readBlock(int64(bi+1), blk.Data, 5, nil, &batch); err != nil {
				b.Fatal(err)
			}
			n += batch.N
		}
		if n != benchScanRows {
			b.Fatalf("decoded %d rows, want %d", n, benchScanRows)
		}
	}
}

func BenchmarkColdScanColumnar(b *testing.B) {
	blocks, err := CompressColumnar(benchScanData(b), 4096)
	if err != nil {
		b.Fatal(err)
	}
	benchColdScan(b, blocks)
}

func BenchmarkColdScanRowBlob(b *testing.B) {
	rows := benchScanData(b)
	recs := make([][]byte, len(rows))
	for i, r := range rows {
		recs[i] = relstore.EncodeRow(nil, r, true)
	}
	blocks, err := Compress(recs, 4096)
	if err != nil {
		b.Fatal(err)
	}
	benchColdScan(b, blocks)
}
