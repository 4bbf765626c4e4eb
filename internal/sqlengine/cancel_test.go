package sqlengine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"archis/internal/relstore"
)

// Context cancellation (DESIGN.md §15.1): a cancelled query must stop
// mid-scan promptly, release its pinned snapshot, and leave the
// engine fully reusable. Mutations are never interrupted mid-flight —
// only rejected when the context fired before they started.

// genTable is a synthetic virtual source of n rows (k, v) =
// (off+i, i%97), generated 1024 rows per morsel or batch: scans as
// long as a test needs without storing the rows.
type genTable struct{ n, off int }

func (g genTable) Schema() relstore.Schema {
	return relstore.NewSchema("gen", relstore.Column{Name: "k", Type: relstore.TypeInt}, relstore.Column{Name: "v", Type: relstore.TypeInt})
}

func (g genTable) Scan(bounds []relstore.ZoneBound, fn func(relstore.Row) bool) error {
	ms, _ := g.ScanMorsels(bounds)
	for _, m := range ms {
		if stopped, err := m(true, fn); stopped || err != nil {
			return err
		}
	}
	return nil
}

func (g genTable) ScanMorsels([]relstore.ZoneBound) ([]relstore.MorselFunc, error) {
	var out []relstore.MorselFunc
	for lo := 0; lo < g.n; lo += 1024 {
		hi := min(lo+1024, g.n)
		out = append(out, func(_ bool, fn func(relstore.Row) bool) (bool, error) {
			for i := lo; i < hi; i++ {
				if !fn(relstore.Row{relstore.Int(int64(g.off + i)), relstore.Int(int64(i % 97))}) {
					return true, nil
				}
			}
			return false, nil
		})
	}
	return out, nil
}

func (g genTable) ScanBatches([]relstore.ZoneBound, []bool) ([]relstore.BatchFunc, error) {
	var out []relstore.BatchFunc
	for lo := 0; lo < g.n; lo += 1024 {
		hi := min(lo+1024, g.n)
		out = append(out, func(fn func(*relstore.ColBatch) bool) (bool, error) {
			b := &relstore.ColBatch{N: hi - lo, Cols: []relstore.ColVec{
				{Present: true, Kind: relstore.TypeInt, I: make([]int64, hi-lo)},
				{Present: true, Kind: relstore.TypeInt, I: make([]int64, hi-lo)},
			}}
			for i := lo; i < hi; i++ {
				b.Cols[0].I[i-lo], b.Cols[1].I[i-lo] = int64(g.off+i), int64(i%97)
			}
			return !fn(b), nil
		})
	}
	return out, nil
}

// TestCancelMidJoinReturnsFast pins the served path's latency
// contract for every drain shape: cancelling a long-running query
// returns within 50ms of the cancel, orders of magnitude before the
// query would finish, with the pinned snapshot released.
func TestCancelMidJoinReturnsFast(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		sql     string
	}{
		// Non-equi nested-loop join: 9M row pairs, far beyond 50ms.
		{"nested-loop", 0, `select count(*) from pt a, pt b where a.v + b.v = 123456789`},
		// Inline vectorized drain over 16M generated rows.
		{"columnar-scan-w1", 1, `select count(*) from gen where v >= 0`},
		// Fused build-inner probe (equal estimates tie toward FROM
		// order) streaming 16M generated rows over page morsels; no key
		// ever matches.
		{"fused-probe", 2, `select count(*) from gen g, gsmall s where g.k = s.k`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			en, db := newParallelDB(t, 3000)
			en.RegisterVirtual("gen", genTable{n: 1 << 24})
			en.RegisterVirtual("gsmall", genTable{n: 16, off: -100})
			en.Workers = tc.workers
			if tc.name == "fused-probe" && !strings.Contains(explainText(t, en, tc.sql), "(streamed)") {
				t.Fatalf("not a fused probe:\n%s", explainText(t, en, tc.sql))
			}
			base := db.Stats().PinnedReaders
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := en.ExecCtx(ctx, tc.sql)
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			cancel()
			start := time.Now()
			select {
			case err := <-done:
				if d := time.Since(start); d > 50*time.Millisecond {
					t.Errorf("cancelled query took %s to return, want <50ms", d)
				}
				if err == nil || !strings.Contains(err.Error(), "cancelled") {
					t.Errorf("cancelled query returned %v, want a cancellation error", err)
				}
				if !errors.Is(err, context.Canceled) {
					t.Errorf("cancellation error does not wrap context.Canceled: %v", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("cancelled query still running after 2s")
			}
			// The pinned snapshot must be released on the error path.
			if got := db.Stats().PinnedReaders; got != base {
				t.Errorf("pinned readers = %d after cancellation, want %d", got, base)
			}
		})
	}
}

// TestCancelParallelScanLeavesEngineReusable cancels a morsel-fanout
// scan mid-drain and checks the worker pool serves the next query
// normally. The cancel races the (fast) scan, so both outcomes are
// legal — what must hold either way: no stuck workers, no leaked
// snapshot pin, identical results on re-execution.
func TestCancelParallelScanLeavesEngineReusable(t *testing.T) {
	en, db := newParallelDB(t, 20000)
	en.Workers = 4
	base := db.Stats().PinnedReaders

	q := `select grp, sum(v), count(*) from pt group by grp order by grp`
	want := dump(en.MustExec(q))

	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(i%4) * 100 * time.Microsecond)
			cancel()
		}()
		res, err := en.ExecCtx(ctx, q)
		if err != nil {
			if !strings.Contains(err.Error(), "cancelled") {
				t.Fatalf("run %d: unexpected error: %v", i, err)
			}
		} else if got := dump(res); got != want {
			t.Fatalf("run %d: completed result diverged", i)
		}
		cancel()
	}

	if got := db.Stats().PinnedReaders; got != base {
		t.Errorf("pinned readers = %d after cancelled runs, want %d", got, base)
	}
	// The pool must be fully reusable after every cancellation.
	if got := dump(en.MustExec(q)); got != want {
		t.Error("engine returned a different result after cancellations")
	}
}

// TestCancelledContextRejectsMutation: a context that fired before
// the statement starts rejects DML without applying anything; a
// running mutation is never cut short.
func TestCancelledContextRejectsMutation(t *testing.T) {
	en, _ := newParallelDB(t, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := en.ExecCtx(ctx, `insert into pt values (999999, 1, 'gx', 1)`); err == nil ||
		!strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("pre-cancelled context did not reject the insert: %v", err)
	}
	res := en.MustExec(`select count(*) from pt where id = 999999`)
	if res.Rows[0][0].I != 0 {
		t.Error("rejected insert still applied rows")
	}
	// A live context lets the same statement through.
	if _, err := en.ExecCtx(context.Background(), `insert into pt values (999999, 1, 'gx', 1)`); err != nil {
		t.Fatal(err)
	}
}
