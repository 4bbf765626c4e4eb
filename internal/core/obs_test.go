package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"archis/internal/htable"
	"archis/internal/wal"
)

// TestStatsRace hammers the read-side observability surfaces —
// Stats(), WALStats(), MetricsSnapshot(), MetricsJSON() — while
// durable writers run. Under -race this pins down the old bug where
// Stats() read s.replayed without synchronization against Recover and
// assembled WAL counters while ExecDurable advanced them.
func TestStatsRace(t *testing.T) {
	dir := t.TempDir()
	s := buildDurable(t, dir, nil, htable.CaptureTrigger)
	s.SetClock(day("1995-01-01"))

	const writers, inserts = 4, 25
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.Stats()
				_ = s.WALStats()
				_ = s.MetricsSnapshot()
				_ = s.MetricsJSON()
			}
		}()
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < inserts; i++ {
				id := w*inserts + i + 1
				stmt := fmt.Sprintf("INSERT INTO emp VALUES (%d, 'w%d', %d)", id, w, 100+id)
				if _, err := s.ExecDurable(stmt); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	st := s.Stats()
	if st.WALAppends == 0 {
		t.Fatal("no WAL appends recorded after durable writes")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Recover the directory and read Stats concurrently with replay-
	// adjacent state: the replayed counter must come through atomically.
	s2, err := Recover(dir, nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer s2.Close()
	if got := s2.Stats().WALReplayedRecords; got == 0 {
		t.Fatal("recovery replayed nothing; expected a log tail past the birth checkpoint")
	}
}

// TestMetricsSnapshotWAL asserts the acceptance criterion that a
// durable system's MetricsSnapshot exposes the WAL latency histograms
// and counters.
func TestMetricsSnapshotWAL(t *testing.T) {
	dir := t.TempDir()
	s := buildDurable(t, dir, nil, htable.CaptureTrigger)
	defer s.Close()
	runWorkload(t, s)

	snap := s.MetricsSnapshot()
	for _, name := range []string{"wal.append_ns", "wal.fsync_ns", "wal.commit_ns"} {
		h, ok := snap.Histograms[name]
		if !ok {
			t.Fatalf("snapshot is missing histogram %s; have %v", name, snap.Histograms)
		}
		if h.Count == 0 {
			t.Errorf("histogram %s recorded nothing after a durable workload", name)
		}
		if h.SumNS <= 0 || h.P99NS < h.P50NS {
			t.Errorf("histogram %s has implausible shape: %+v", name, h)
		}
	}
	if snap.Counters["wal.appends"] == 0 {
		t.Error("wal.appends counter is zero after durable writes")
	}
	if snap.Counters["wal.fsyncs"] == 0 {
		t.Error("wal.fsyncs counter is zero after durable writes")
	}
	if snap.Gauges["wal.appended_lsn"] == 0 {
		t.Error("wal.appended_lsn gauge is zero after durable writes")
	}
	if snap.Counters["relstore.rows_borrowed"] == 0 && snap.Counters["relstore.rows_copied"] == 0 {
		t.Error("no relstore row counters moved during the workload")
	}
	b := s.MetricsJSON()
	if !strings.Contains(string(b), `"wal.fsync_ns"`) {
		t.Error("MetricsJSON does not mention wal.fsync_ns")
	}
}

// TestQueryTraced checks the span tree of a translated temporal query:
// translation and execution spans present, storage deltas attributed
// on the root.
func TestQueryTraced(t *testing.T) {
	s := newLoadedSystem(t, Options{})

	q := `for $s in doc("employees.xml")/employees/employee[name="Bob"]/salary return $s`
	res, trace, err := s.QueryTraced(q)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Path != PathSQL {
		t.Fatalf("path = %s, want sql/xml", res.Path)
	}
	plain, err := s.Query(q)
	if err != nil {
		t.Fatalf("untraced query: %v", err)
	}
	if fmt.Sprintf("%v", plain.Items) != fmt.Sprintf("%v", res.Items) {
		t.Fatalf("traced and untraced results differ:\n%v\n%v", plain.Items, res.Items)
	}
	if trace.Root == nil || trace.Query != q {
		t.Fatalf("trace lacks root or query: %+v", trace)
	}
	if trace.Find("translate") == nil {
		t.Errorf("trace has no translate span:\n%s", trace.Tree())
	}
	if trace.Find("scan") == nil {
		t.Errorf("trace has no scan span:\n%s", trace.Tree())
	}
	if trace.Root.Attr("path") != "sql/xml" {
		t.Errorf("root path attr = %q, want sql/xml", trace.Root.Attr("path"))
	}

	// The XML fallback path must carry xquery spans instead.
	xq := `for $e in doc("emp.xml")/employees/employee[name="Bob"]
let $overlaps := restructure($e/deptno, $e/title)
return max($overlaps)`
	xres, xtrace, err := s.QueryTraced(xq)
	if err != nil {
		t.Fatalf("xml query: %v", err)
	}
	if xres.Path != PathXML {
		t.Fatalf("path = %s, want xml", xres.Path)
	}
	if xtrace.Find("xquery:eval") == nil {
		t.Errorf("xml trace has no xquery:eval span:\n%s", xtrace.Tree())
	}
}

// TestSlowQueryLog drives the threshold to one nanosecond so every
// query logs, and checks the structured record shape.
func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var records []string
	s := newLoadedSystem(t, Options{
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog: func(rec string) {
			mu.Lock()
			records = append(records, rec)
			mu.Unlock()
		},
	})
	if _, err := s.Exec("SELECT name\nFROM employee\nORDER BY name"); err != nil {
		t.Fatalf("select: %v", err)
	}
	if _, err := s.Query(`for $s in doc("employees.xml")/employees/employee[name="Bob"]/salary return $s`); err != nil {
		t.Fatalf("query: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(records) < 2 {
		t.Fatalf("expected records for both queries, got %v", records)
	}
	for _, rec := range records {
		if !strings.HasPrefix(rec, "slow_query path=") {
			t.Errorf("record %q lacks the slow_query prefix", rec)
		}
		if strings.Contains(rec, "\n") {
			t.Errorf("record %q contains a newline; queries must be collapsed", rec)
		}
		for _, field := range []string{" dur=", " rows=", " status=", " query="} {
			if !strings.Contains(rec, field) {
				t.Errorf("record %q lacks %s field", rec, field)
			}
		}
	}
}

// TestSlowQueryRecordRuneBoundary: truncation of an over-long query
// must never split a multibyte rune — the log line stays valid UTF-8
// no matter where the 200-byte cap lands.
func TestSlowQueryRecordRuneBoundary(t *testing.T) {
	// Each э is two bytes, so for some prefix lengths the byte cap
	// lands mid-rune; shifting a one-byte prefix sweeps every phase.
	for pad := 0; pad < 4; pad++ {
		q := strings.Repeat("x", pad) + strings.Repeat("э", 200)
		rec := slowQueryRecord("sql", q, time.Millisecond, 0, nil)
		if !utf8.ValidString(rec) {
			t.Errorf("pad %d: truncated record is not valid UTF-8: %q", pad, rec)
		}
		if !strings.Contains(rec, `...`) {
			t.Errorf("pad %d: long query was not truncated: %q", pad, rec)
		}
	}
	// Short queries pass through untouched.
	rec := slowQueryRecord("sql", "select 1", time.Millisecond, 1, nil)
	if strings.Contains(rec, "...") {
		t.Errorf("short query was truncated: %q", rec)
	}
}

// TestRunParallelExplain checks that EXPLAIN statements route through
// the read-only SQL path instead of falling through to XQuery.
func TestRunParallelExplain(t *testing.T) {
	s, err := New(Options{Capture: htable.CaptureTrigger})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := s.Register(empSpec); err != nil {
		t.Fatalf("register: %v", err)
	}
	s.SetClock(day("1995-01-01"))
	if _, err := s.Exec("INSERT INTO emp VALUES (1, 'n1', 100)"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	out := s.RunParallel([]string{
		"EXPLAIN SELECT id FROM emp",
		"explain analyze select id from emp",
	}, 2)
	for i, pr := range out {
		if pr.Err != nil {
			t.Fatalf("query %d: %v", i, pr.Err)
		}
		if len(pr.Result.Items) == 0 {
			t.Fatalf("query %d returned an empty plan", i)
		}
	}
}

// TestEveryEntryPathObservedOnce drives each statement entry point once
// and requires exactly one latency sample in the path's histogram and
// one slow-query record (threshold 1ns) per call — no path may skip
// the observation or record twice.
func TestEveryEntryPathObservedOnce(t *testing.T) {
	s := buildDurable(t, t.TempDir(), wal.OSFS{}, htable.CaptureTrigger)
	defer s.Close()
	s.SetClock(day("1995-01-01"))
	if _, err := s.ExecDurable("INSERT INTO emp VALUES (1, 'n1', 100)"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	logged := 0
	s.SetSlowQueryLog(time.Nanosecond, func(string) {
		mu.Lock()
		logged++
		mu.Unlock()
	})
	const xq = `for $s in doc("emp.xml")/employees/emp[name="n1"]/salary return $s`
	hists := []string{"query.sql_ns", "query.sqlxml_ns", "query.xml_ns"}
	for _, tc := range []struct {
		name string
		hist string
		run  func() error
	}{
		{"Exec", "query.sql_ns", func() error {
			_, err := s.Exec("SELECT id FROM emp")
			return err
		}},
		{"ExecDurable/read", "query.sql_ns", func() error {
			_, err := s.ExecDurable("SELECT id FROM emp")
			return err
		}},
		{"ExecDurable/write", "query.sql_ns", func() error {
			_, err := s.ExecDurable("UPDATE emp SET salary = 150 WHERE id = 1")
			return err
		}},
		{"ReadAsOf", "query.sql_ns", func() error {
			_, err := s.ReadAsOf(s.WALStats().AppendedLSN, "SELECT id FROM emp")
			return err
		}},
		{"RunParallel/sql", "query.sql_ns", func() error {
			return s.RunParallel([]string{"SELECT id FROM emp"}, 1)[0].Err
		}},
		{"RunParallel/xquery", "query.xml_ns", func() error {
			return s.RunParallel([]string{xq}, 1)[0].Err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := s.MetricsSnapshot().Histograms
			mu.Lock()
			logBefore := logged
			mu.Unlock()
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
			after := s.MetricsSnapshot().Histograms
			for _, h := range hists {
				want := int64(0)
				if h == tc.hist {
					want = 1
				}
				if got := after[h].Count - before[h].Count; got != want {
					t.Errorf("%s added %d samples, want %d", h, got, want)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if got := logged - logBefore; got != 1 {
				t.Errorf("wrote %d slow-query records, want 1", got)
			}
		})
	}
}
