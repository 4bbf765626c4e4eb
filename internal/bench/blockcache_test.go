package bench

import (
	"fmt"
	"testing"

	"archis/internal/core"
	"archis/internal/dataset"
)

// buildBlockCacheEnv builds the small differential workload on one
// layout; on the compressed layout every attribute history is forced
// into frozen, compressed segments (in the given block encoding) so
// the queries actually read BlockZIP blocks at this scale.
func buildBlockCacheEnv(t *testing.T, cfg dataset.Config, layout core.Layout, columnar core.ColumnarMode) *Env {
	t.Helper()
	e, err := Build(cfg, Options{
		Layout:         layout,
		MinSegmentRows: 40,
		Compress:       layout == core.LayoutCompressed,
		Columnar:       columnar,
	})
	if err != nil {
		t.Fatal(err)
	}
	if layout == core.LayoutCompressed {
		for _, at := range []string{
			"employee_name", "employee_salary", "employee_title", "employee_deptno",
			"dept_deptname", "dept_mgrno",
		} {
			if st, ok := e.Sys.SegmentStore(at); ok {
				if err := st.ArchiveNow(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.Sys.CompressFrozen(); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestBlockCacheDifferential runs the Table 3 suite on every layout
// with the decoded-block cache off (reference) and then on, serial and
// with concurrent readers, and requires identical answers everywhere.
// Run with -race: on the compressed layout the concurrent passes read
// shared cached vectors from many goroutines at once.
//
// The churn cases run concurrent readers with different projections —
// Q4 reads segno and tend, Q6 five columns, XQ1 whole rows through the
// row path — over columnar and legacy row-blob blocks, read both
// vectorized and row at a time, under a budget far below the working
// set, so blocks are evicted and re-decoded in the middle of queries.
func TestBlockCacheDifferential(t *testing.T) {
	for _, tc := range []struct {
		name   string
		layout core.Layout
	}{
		{"plain", core.LayoutPlain},
		{"clustered", core.LayoutClustered},
		{"compressed", core.LayoutCompressed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := buildBlockCacheEnv(t, dataset.Config{
				Employees:   30,
				Years:       4,
				Departments: 4,
				Seed:        11,
			}, tc.layout, core.ColumnarOn)
			queries := append(e.SuiteQueries(2), e.SnapshotQueries(4)...)

			// Reference: cache off (the default), serial, cold.
			e.Cold()
			_, ref, err := e.RunBatch(queries, 1)
			if err != nil {
				t.Fatal(err)
			}

			e.Sys.DB.SetBlockCacheBytes(32 << 20)
			e.Cold()
			e.Sys.DB.ResetStats()
			for _, pass := range []struct {
				name    string
				workers int
			}{{"serial-cold", 1}, {"concurrent-warm", 4}, {"concurrent-warm-2", 4}} {
				_, got, err := e.RunBatch(queries, pass.workers)
				if err != nil {
					t.Fatalf("%s: %v", pass.name, err)
				}
				if !SameAnswers(got, ref) {
					t.Fatalf("%s: answers with block cache on differ from cache-off reference", pass.name)
				}
			}
			st := e.Sys.DB.Stats()
			if tc.layout == core.LayoutCompressed {
				if st.BlockCacheHits == 0 {
					t.Error("compressed layout never hit the block cache across warm passes")
				}
			} else if st.BlockCacheHits != 0 || st.BlockCacheMisses != 0 {
				t.Errorf("layout without BlockZIP touched the block cache: %+v", st)
			}

			// Cold mode must stay honest: DropCaches empties the block
			// cache even while a budget is configured.
			e.Cold()
			if n := e.Sys.DB.CachedVectors(); n != 0 {
				t.Errorf("Cold() left %d decoded vectors cached", n)
			}
			_, got, err := e.RunBatch(queries, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !SameAnswers(got, ref) {
				t.Fatal("post-Cold answers differ from reference")
			}
		})
	}

	for _, enc := range []struct {
		name string
		mode core.ColumnarMode
	}{{"columnar", core.ColumnarOn}, {"rowblob", core.ColumnarOff}} {
		for _, vectorized := range []bool{true, false} {
			name := fmt.Sprintf("churn-%s-vectorized=%v", enc.name, vectorized)
			t.Run(name, func(t *testing.T) {
				e := buildBlockCacheEnv(t, dataset.Config{
					Employees:         60,
					Years:             8,
					Departments:       4,
					Seed:              11,
					MonthlyUpdateFrac: 0.08,
					TurnoverFrac:      0.004,
				}, core.LayoutCompressed, enc.mode)
				// Reading legacy blocks vectorized is the mixed-archive
				// case: old row blobs under a columnar-mode engine.
				e.Sys.Engine.Columnar = vectorized
				xq1 := fmt.Sprintf(`element title_history{
  for $t in doc("employees.xml")/employees/employee[id=%d]/title
  return $t }`, e.SingleID)
				var queries []string
				for r := 0; r < 4; r++ {
					queries = append(queries, e.SQL(Q4), e.SQL(Q6), xq1)
				}

				e.Cold()
				_, ref, err := e.RunBatch(queries, 1)
				if err != nil {
					t.Fatal(err)
				}

				// Measure the working set with an ample budget, then
				// give the cache a third of it.
				e.Sys.DB.SetBlockCacheBytes(32 << 20)
				if _, _, err := e.RunBatch(queries, 1); err != nil {
					t.Fatal(err)
				}
				budget := e.Sys.DB.BlockCacheBytes() / 3
				e.Sys.DB.SetBlockCacheBytes(budget)
				if _, _, err := e.RunBatch(queries, 1); err != nil {
					t.Fatal(err)
				}
				e.Sys.DB.ResetStats()
				for pass := 0; pass < 2; pass++ {
					_, got, err := e.RunBatch(queries, 4)
					if err != nil {
						t.Fatal(err)
					}
					if !SameAnswers(got, ref) {
						t.Fatalf("pass %d: answers under cache churn differ from the cache-off reference", pass)
					}
				}
				st := e.Sys.DB.Stats()
				if st.BlockCacheHits == 0 {
					t.Error("the churn budget never hit: nothing was cached")
				}
				if st.BlockCacheMisses == 0 {
					t.Error("a warmed cache never missed: the budget held the whole working set, so nothing was evicted")
				}
				if used := e.Sys.DB.BlockCacheBytes(); used > budget {
					t.Errorf("cache holds %d bytes over its %d-byte budget", used, budget)
				}
			})
		}
	}
}
