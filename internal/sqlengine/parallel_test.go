package sqlengine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"archis/internal/relstore"
)

// newParallelDB builds an engine over one multi-page, integer-heavy
// table so serial and parallel execution can be compared exactly
// (integer aggregates have no reassociation error).
func newParallelDB(t testing.TB, rows int) (*Engine, *relstore.Database) {
	t.Helper()
	db := relstore.NewDatabase()
	en := New(db)
	en.MustExec(`create table pt (id INT, v INT, grp VARCHAR, w INT)`)
	r := rand.New(rand.NewSource(7))
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		if sb.Len() == 0 {
			sb.WriteString("insert into pt values ")
		} else {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 'g%d', %d)", i, r.Intn(100000), r.Intn(7), r.Intn(50))
		if (i+1)%200 == 0 {
			en.MustExec(sb.String())
			sb.Reset()
		}
	}
	if sb.Len() > 0 {
		en.MustExec(sb.String())
	}
	tbl, _ := db.Table("pt")
	tbl.Flush() // seal pages so the scan has several morsels
	if tbl.PageCount() < 2 {
		t.Fatalf("test table has %d pages, want several", tbl.PageCount())
	}
	en.RegisterVirtual("vt", batchTable{tbl})
	en.RegisterAggregate("firstv", newFirstV)
	return en, db
}

// firstV is a deliberately non-mergeable, order-sensitive aggregate:
// the first non-NULL value added. It pins that a statement using it
// drains inline into one accumulator at any worker count.
type firstV struct {
	v   relstore.Value
	set bool
}

func newFirstV() AggState { return &firstV{v: relstore.Null} }

func (f *firstV) Add(args []relstore.Value) error {
	if !f.set && !args[0].IsNull() {
		f.v, f.set = args[0], true
	}
	return nil
}

func (f *firstV) Result() relstore.Value { return f.v }

// batchTable exposes a base table as a batch-capable virtual source:
// one column batch per page morsel, INT and VARCHAR columns only, so
// the vectorized drain reads exactly the rows the row path reads.
type batchTable struct{ t *relstore.Table }

func (b batchTable) Schema() relstore.Schema { return b.t.Schema() }

func (b batchTable) Scan(bounds []relstore.ZoneBound, fn func(relstore.Row) bool) error {
	return b.t.ScanBorrow(bounds, func(_ relstore.RID, r relstore.Row) bool { return fn(r) })
}

func (b batchTable) ScanMorsels(bounds []relstore.ZoneBound) ([]relstore.MorselFunc, error) {
	return b.t.ScanMorsels(bounds)
}

func (b batchTable) ScanBatches(bounds []relstore.ZoneBound, needed []bool) ([]relstore.BatchFunc, error) {
	ms, err := b.t.ScanMorsels(bounds)
	if err != nil {
		return nil, err
	}
	out := make([]relstore.BatchFunc, len(ms))
	for i, m := range ms {
		out[i] = func(fn func(*relstore.ColBatch) bool) (bool, error) {
			var rows []relstore.Row
			if _, err := m(true, func(r relstore.Row) bool { rows = append(rows, r); return true }); err != nil {
				return false, err
			}
			cb := &relstore.ColBatch{N: len(rows), Cols: make([]relstore.ColVec, len(b.Schema().Columns))}
			for c := range cb.Cols {
				if needed != nil && !needed[c] {
					continue
				}
				v := &cb.Cols[c]
				v.Present = true
				v.Kinds = make([]relstore.Type, len(rows))
				v.I = make([]int64, len(rows))
				v.S = make([]string, len(rows))
				for i, r := range rows {
					v.Kinds[i], v.I[i], v.S[i] = r[c].Kind, r[c].I, r[c].S
				}
			}
			return !fn(cb), nil
		}
	}
	return out, nil
}

// dump renders a result for exact comparison: column names plus every
// row, in order.
func dump(res *Result) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Columns, ","))
	for _, row := range res.Rows {
		sb.WriteByte('\n')
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.Text())
		}
	}
	return sb.String()
}

// runBoth executes sql at Workers 1, 2 and 4, each with the columnar
// path on and off, and fails unless every result is byte-identical
// to Workers=1 with columnar on (including row order: a fanned-out
// drain merges morsel outputs in index order, which is defined to
// equal the inline drain's order).
func runBoth(t *testing.T, en *Engine, sql string) {
	t.Helper()
	defer func(w int, c bool) { en.Workers, en.Columnar = w, c }(en.Workers, en.Columnar)
	var want string
	for _, columnar := range []bool{true, false} {
		for _, w := range []int{1, 2, 4} {
			en.Workers, en.Columnar = w, columnar
			res, err := en.Exec(sql)
			if err != nil {
				t.Fatalf("workers=%d columnar=%v %q: %v", w, columnar, sql, err)
			}
			got := dump(res)
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("divergence at workers=%d columnar=%v on %q:\nworkers=1:\n%s\ngot:\n%s", w, columnar, sql, want, got)
			}
		}
	}
}

// genFilter produces a random WHERE clause over pt's columns using
// only deterministic integer/string comparisons.
func genFilter(r *rand.Rand) string {
	atom := func() string {
		switch r.Intn(5) {
		case 0:
			return fmt.Sprintf("v > %d", r.Intn(100000))
		case 1:
			return fmt.Sprintf("v <= %d", r.Intn(100000))
		case 2:
			return fmt.Sprintf("id >= %d", r.Intn(3000))
		case 3:
			return fmt.Sprintf("grp = 'g%d'", r.Intn(8))
		default:
			return fmt.Sprintf("w between %d and %d", r.Intn(25), 25+r.Intn(25))
		}
	}
	n := 1 + r.Intn(3)
	parts := make([]string, n)
	for i := range parts {
		if r.Intn(4) == 0 {
			parts[i] = "(" + atom() + " or " + atom() + ")"
		} else {
			parts[i] = atom()
		}
	}
	return strings.Join(parts, " and ")
}

// parallelCorpus is the seeded statement corpus of the parallel
// differential: filter, aggregate, grouping, DISTINCT and ORDER BY
// shapes over pt, half of them again over vt (the same rows through
// the vectorized drain), plus a non-mergeable aggregate and scans
// zone-pruned to at most one morsel.
func parallelCorpus() []string {
	r := rand.New(rand.NewSource(42))
	var out []string
	for i := 0; i < 40; i++ {
		where := genFilter(r)
		stmts := []string{
			fmt.Sprintf(`select id, v, grp from pt where %s`, where),
			fmt.Sprintf(`select count(*), sum(v), min(v), max(v), avg(w), count_distinct(grp) from pt where %s`, where),
			fmt.Sprintf(`select grp, count(*), sum(v), max(w) from pt where %s group by grp`, where),
			fmt.Sprintf(`select grp, sum(v) from pt where %s group by grp having count(*) > %d order by grp desc`, where, r.Intn(40)),
			fmt.Sprintf(`select distinct grp from pt where %s`, where),
			fmt.Sprintf(`select id from pt where %s order by v, id limit %d`, where, 1+r.Intn(20)),
		}
		a, b := stmts[i%len(stmts)], stmts[(i+1)%len(stmts)]
		out = append(out, a, b)
		if i%2 == 0 {
			out = append(out, strings.Replace(a, " from pt", " from vt", 1))
		}
	}
	return append(out,
		`select grp, firstv(v), count(*) from pt where v > 500 group by grp`,
		`select firstv(id), max(v) from vt where w < 40`,
		`select id, v from pt where id >= 2995`,
		`select id, v, grp from vt where id >= 2995 and v > 10`,
		`select count(*), firstv(grp) from vt where id >= 2995`,
	)
}

// TestParallelRandomizedDifferential runs the parallel corpus at every
// worker count with the columnar path on and off and asserts
// byte-identical results. Run under -race this also stresses the
// worker pool.
func TestParallelRandomizedDifferential(t *testing.T) {
	en, db := newParallelDB(t, 3000)
	for _, sql := range parallelCorpus() {
		runBoth(t, en, sql)
	}
	// The pruned inputs really reach the drain as at most one morsel.
	en.Workers = 4
	for _, sql := range []string{`select id, v from pt where id >= 2995`, `select count(*) from vt where id >= 2995`} {
		db.ResetStats()
		en.MustExec(sql)
		if m := db.Stats().Morsels; m > 1 {
			t.Errorf("%s: %d morsels, want at most 1", sql, m)
		}
	}
}

// Unfiltered statements exercise the full-table morsel path.
func TestParallelFullScanStatements(t *testing.T) {
	en, _ := newParallelDB(t, 2500)
	for _, sql := range []string{
		`select * from pt`,
		`select count(*) from pt`,
		`select sum(v), min(id), max(id) from pt`,
		`select grp, count(*) from pt group by grp`,
		`select distinct w from pt`,
	} {
		runBoth(t, en, sql)
	}
}

// The parallel path must actually engage — dispatch morsels and
// borrow rows — rather than silently falling back to serial.
func TestParallelPathEngages(t *testing.T) {
	en, db := newParallelDB(t, 2000)
	en.Workers = 4
	db.ResetStats()
	if _, err := en.Exec(`select sum(v) from pt where v > 100`); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Morsels == 0 {
		t.Error("no morsels dispatched: parallel path did not engage")
	}
	if st.RowsBorrowed == 0 {
		t.Error("no rows borrowed: scan fell back to the copying path")
	}
	if st.RowsCopied != 0 {
		t.Errorf("parallel scan copied %d rows", st.RowsCopied)
	}
}

// A DML statement issued between scans (tombstoning rows on sealed
// pages) must be observed identically by both paths; and a parallel
// scan created after the delete sees the post-delete snapshot.
func TestParallelAfterMidTableDeletes(t *testing.T) {
	en, _ := newParallelDB(t, 2000)
	runBoth(t, en, `select count(*), sum(v) from pt`)
	en.Workers = 1
	res, err := en.Exec(`delete from pt where w < 10`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected == 0 {
		t.Fatal("delete removed nothing")
	}
	runBoth(t, en, `select count(*), sum(v) from pt`)
	runBoth(t, en, `select id, v from pt where v > 50000`)
	runBoth(t, en, `select grp, count(*) from pt group by grp order by grp`)
}

// Workers=0 (GOMAXPROCS) and negative values must behave like valid
// settings, and multi-table statements must fall back to the serial
// path untouched.
func TestParallelWorkerSettingsAndFallbacks(t *testing.T) {
	en, _ := newParallelDB(t, 1200)
	en.MustExec(`create table small (id INT, tag VARCHAR)`)
	en.MustExec(`insert into small values (1, 'a'), (2, 'b'), (3, 'c')`)
	for _, w := range []int{0, -3, 2} {
		en.Workers = 1
		serial, err := en.Exec(`select sum(v) from pt`)
		if err != nil {
			t.Fatal(err)
		}
		en.Workers = w
		got, err := en.Exec(`select sum(v) from pt`)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if dump(serial) != dump(got) {
			t.Errorf("workers=%d diverged", w)
		}
	}
	// Join falls back to the serial executor and still works with
	// Workers set high.
	en.Workers = 8
	res, err := en.Exec(`select count(*) from pt, small where pt.w = small.id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("join result: %+v", res)
	}
}
