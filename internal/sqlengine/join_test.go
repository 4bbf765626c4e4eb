package sqlengine

import (
	"fmt"
	"strings"
	"testing"

	"archis/internal/relstore"
)

// TestAppendKeyCollisionRegression pins the composite-key encoding
// bug: the old terminator-based scheme encoded ("a\x00\x03b","c") and
// ("a","b\x00\x03c") to the same bytes (0x03 is the TypeString kind
// tag), which made hash joins and DISTINCT conflate distinct keys.
func TestAppendKeyCollisionRegression(t *testing.T) {
	pairs := [][2][]relstore.Value{
		{
			{relstore.String_("a\x00\x03b"), relstore.String_("c")},
			{relstore.String_("a"), relstore.String_("b\x00\x03c")},
		},
		{ // splitting across the separator position
			{relstore.String_("ab"), relstore.String_("c")},
			{relstore.String_("a"), relstore.String_("bc")},
		},
		{ // NULL vs empty string
			{relstore.Null, relstore.String_("x")},
			{relstore.String_(""), relstore.String_("x")},
		},
		{ // int 1 vs string "1"
			{relstore.Int(1)},
			{relstore.String_("1")},
		},
		{ // bytes vs string with identical payload
			{relstore.Bytes([]byte("ab"))},
			{relstore.String_("ab")},
		},
	}
	for i, p := range pairs {
		a := appendKey(nil, p[0])
		b := appendKey(nil, p[1])
		if string(a) == string(b) {
			t.Errorf("pair %d: distinct keys %v and %v encode identically (%x)", i, p[0], p[1], a)
		}
	}
	// And equal values must still encode equally (scratch reuse included).
	scratch := appendKey(nil, pairs[0][0])
	scratch = appendKey(scratch[:0], pairs[0][0])
	if string(scratch) != string(appendKey(nil, pairs[0][0])) {
		t.Error("scratch reuse changed the encoding")
	}
}

// TestHashJoinAdversarialKeys runs a two-column equi join whose key
// values are built to collide under the old encoding and checks the
// join returns exactly the true matches.
func TestHashJoinAdversarialKeys(t *testing.T) {
	en := New(relstore.NewDatabase())
	en.MustExec(`create table l (a VARCHAR, b VARCHAR, tag INT)`)
	en.MustExec(`create table r (a VARCHAR, b VARCHAR, tag INT)`)
	// Two left rows whose (a,b) differ but old-encode identically, and
	// the matching right rows.
	rows := []struct {
		a, b string
		tag  int64
	}{
		{"a\x00\x03b", "c", 1},
		{"a", "b\x00\x03c", 2},
	}
	for _, r := range rows {
		if err := en.InsertRow("l", relstore.Row{relstore.String_(r.a), relstore.String_(r.b), relstore.Int(r.tag)}); err != nil {
			t.Fatal(err)
		}
		if err := en.InsertRow("r", relstore.Row{relstore.String_(r.a), relstore.String_(r.b), relstore.Int(r.tag + 10)}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := en.Exec(`select l.tag, r.tag from l, r where l.a = r.a and l.b = r.b order by l.tag`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("join returned %d rows, want 2 (old encoding returns 4): %v", len(res.Rows), res.Rows)
	}
	for i, want := range []int64{11, 12} {
		if res.Rows[i][0].I != want-10 || res.Rows[i][1].I != want {
			t.Errorf("row %d: got (%d,%d), want (%d,%d)", i, res.Rows[i][0].I, res.Rows[i][1].I, want-10, want)
		}
	}
}

// TestDistinctAdversarialKeys is the same collision through the
// DISTINCT path: two distinct output rows must both survive.
func TestDistinctAdversarialKeys(t *testing.T) {
	en := New(relstore.NewDatabase())
	en.MustExec(`create table d (a VARCHAR, b VARCHAR)`)
	for _, r := range [][2]string{{"a\x00\x03b", "c"}, {"a", "b\x00\x03c"}, {"a", "b\x00\x03c"}} {
		if err := en.InsertRow("d", relstore.Row{relstore.String_(r[0]), relstore.String_(r[1])}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := en.Exec(`select distinct a, b from d`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("DISTINCT kept %d rows, want 2: %v", len(res.Rows), res.Rows)
	}
}

// buildJoinDB returns an engine with two sealed multi-page tables
// shaped for a non-indexed hash join (no index on the join key of the
// inner side, so a build-inner fold can fuse with the outer scan).
func buildJoinDB(t testing.TB, rows int) *Engine {
	t.Helper()
	en := New(relstore.NewDatabase())
	en.MustExec(`create table big (id INT, grp INT, val INT)`)
	en.MustExec(`create table small (grp INT, label VARCHAR)`)
	for i := 0; i < rows; i++ {
		if err := en.InsertRow("big", relstore.Row{
			relstore.Int(int64(i)), relstore.Int(int64(i % 17)), relstore.Int(int64(i * 3)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < 17; g++ {
		if err := en.InsertRow("small", relstore.Row{
			relstore.Int(int64(g)), relstore.String_(fmt.Sprintf("g%02d", g)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if tb, ok := en.DB.Table("big"); ok {
		tb.Flush()
	}
	if ts, ok := en.DB.Table("small"); ok {
		ts.Flush()
	}
	return en
}

// TestHashJoinParallelMatchesSerial checks every hash-join shape at
// Workers 1, 2 and 4 with the columnar path on and off: results must
// be byte-identical to Workers=1 (same rows, same order) and the join
// stats must account every probe row and output row. With the planner
// off the first fold is a fused build-inner probe streaming the outer
// scan — over page morsels for big, and for vbig over a batch-capable
// virtual source.
func TestHashJoinParallelMatchesSerial(t *testing.T) {
	en := buildJoinDB(t, 4000)
	big, _ := en.DB.Table("big")
	en.RegisterVirtual("vbig", batchTable{big})
	const q = `select big.id, big.val, small.label from big, small where big.grp = small.grp and big.val >= 300`
	for _, tc := range []struct {
		planner bool
		q       string
	}{
		{true, q + ` order by big.id`},
		{false, q},
		{false, strings.ReplaceAll(q, "big", "vbig")},
	} {
		en.Planner = tc.planner
		if plan := explainText(t, en, tc.q); !tc.planner && !strings.Contains(plan, "(streamed)") {
			t.Fatalf("planner off should fuse the first fold:\n%s", plan)
		}
		want := ""
		for _, columnar := range []bool{true, false} {
			for _, w := range []int{1, 2, 4} {
				en.Workers, en.Columnar = w, columnar
				en.DB.ResetStats()
				res, err := en.Exec(tc.q)
				if err != nil {
					t.Fatal(err)
				}
				st := en.DB.Stats()
				if st.JoinRowsBorrowed == 0 {
					t.Errorf("workers=%d: join did not count borrowed probe rows", w)
				}
				if st.JoinRowsCopied != int64(len(res.Rows)) {
					t.Errorf("workers=%d: JoinRowsCopied=%d, want %d (one combined row per output row)", w, st.JoinRowsCopied, len(res.Rows))
				}
				if got := dump(res); want == "" {
					want = got
				} else if got != want {
					t.Fatalf("planner=%v workers=%d columnar=%v diverged from workers=1 on %s", tc.planner, w, columnar, tc.q)
				}
			}
		}
	}
}

// TestHashJoinNullKeysNeverMatch pins SQL semantics on the new path:
// NULL join keys match nothing on either side.
func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	en := New(relstore.NewDatabase())
	en.MustExec(`create table l (k INT, v INT)`)
	en.MustExec(`create table r (k INT, w INT)`)
	for _, row := range []relstore.Row{
		{relstore.Int(1), relstore.Int(10)},
		{relstore.Null, relstore.Int(20)},
	} {
		if err := en.InsertRow("l", row); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range []relstore.Row{
		{relstore.Int(1), relstore.Int(100)},
		{relstore.Null, relstore.Int(200)},
	} {
		if err := en.InsertRow("r", row); err != nil {
			t.Fatal(err)
		}
	}
	res, err := en.Exec(`select l.v, r.w from l, r where l.k = r.k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 10 || res.Rows[0][1].I != 100 {
		t.Fatalf("NULL keys leaked into the join: %v", res.Rows)
	}
}

func probeBenchTable() (*joinTable, []equiJoin) {
	inner := make([]relstore.Row, 64)
	joins := []equiJoin{{boundPos: 1, newPos: 0}}
	for i := range inner {
		inner[i] = relstore.Row{relstore.Int(int64(i)), relstore.String_("x")}
	}
	return buildJoinTable(inner, joins), joins
}

// BenchmarkHashJoinProbeMiss measures the pure probe path: every key
// misses, so the scratch-encoded lookup must be allocation-free
// (mirroring BenchmarkScanBorrow — expect 0 allocs/op).
func BenchmarkHashJoinProbeMiss(b *testing.B) {
	jt, joins := probeBenchTable()
	probeRows := make([]relstore.Row, 1024)
	for i := range probeRows {
		probeRows[i] = relstore.Row{relstore.Int(int64(i)), relstore.Int(int64(i%640) + 1000)}
	}
	sc := newProbeScratch(joins)
	out := make([]relstore.Row, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = out[:0]
		for _, r := range probeRows {
			out, _ = jt.probe(r, joins, sc, out)
		}
	}
}

// BenchmarkHashJoinProbeMixed has one key in eight match: the only
// allocations are the materialized combined output rows.
func BenchmarkHashJoinProbeMixed(b *testing.B) {
	jt, joins := probeBenchTable()
	probeRows := make([]relstore.Row, 1024)
	for i := range probeRows {
		probeRows[i] = relstore.Row{relstore.Int(int64(i)), relstore.Int(int64(i % 512))}
	}
	sc := newProbeScratch(joins)
	out := make([]relstore.Row, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = out[:0]
		for _, r := range probeRows {
			out, _ = jt.probe(r, joins, sc, out)
		}
	}
}
