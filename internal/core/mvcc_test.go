package core

import (
	"strings"
	"testing"

	"archis/internal/temporal"
)

// Compact and CompressFrozen are online background writers; when there
// is nothing to do they must not enter the write path at all — pinned
// by the snapshot-epoch counter: a no-op maintenance pass publishes no
// new version.

func TestCompactEarlyExitKeepsEpoch(t *testing.T) {
	s := newLoadedSystem(t, Options{Layout: LayoutClustered, MinSegmentRows: 4})
	day := temporal.MustParseDate("1997-02-01")
	for i := 0; i < 6; i++ {
		s.SetClock(day.AddDays(i))
		if _, err := s.Exec(`update employee set salary = salary + 1 where id = 1002`); err != nil {
			t.Fatal(err)
		}
	}

	n, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("Compact archived nothing despite live rows")
	}
	epoch := s.DB.Stats().Epoch

	// Quiescent system: nothing to archive, so no version may be
	// published.
	n, err = s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("second Compact archived %d stores on a quiescent system", n)
	}
	if got := s.DB.Stats().Epoch; got != epoch {
		t.Errorf("no-op Compact bumped the snapshot epoch: %d -> %d", epoch, got)
	}
}

func TestCompressFrozenEarlyExitKeepsEpoch(t *testing.T) {
	s := newLoadedSystem(t, Options{Layout: LayoutCompressed, MinSegmentRows: 4})
	day := temporal.MustParseDate("1997-02-01")
	for i := 0; i < 6; i++ {
		s.SetClock(day.AddDays(i))
		if _, err := s.Exec(`update employee set salary = salary + 1 where id = 1002`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}

	if err := s.CompressFrozen(); err != nil {
		t.Fatal(err)
	}
	epoch := s.DB.Stats().Epoch
	if epoch == 0 {
		t.Fatal("compressing published no version")
	}

	// Everything frozen is already compressed: the second pass must
	// probe and leave without publishing.
	if err := s.CompressFrozen(); err != nil {
		t.Fatal(err)
	}
	if got := s.DB.Stats().Epoch; got != epoch {
		t.Errorf("no-op CompressFrozen bumped the snapshot epoch: %d -> %d", epoch, got)
	}
}

func TestReadAsOfRejectsWrites(t *testing.T) {
	s := newLoadedSystem(t, Options{})
	if _, err := s.ReadAsOf(0, `update employee set salary = 1 where id = 1001`); err == nil ||
		!strings.Contains(err.Error(), "read-only") {
		t.Errorf("ReadAsOf accepted an UPDATE: %v", err)
	}
}

// TestReadAsOfRecordsLatency: point-in-time reads land in the same
// query.sql_ns histogram as Exec, one sample per call.
func TestReadAsOfRecordsLatency(t *testing.T) {
	s := newLoadedSystem(t, Options{})
	count := func() int64 { return s.MetricsSnapshot().Histograms["query.sql_ns"].Count }
	before := count()
	if _, err := s.ReadAsOf(0, `select count(*) from employee`); err != nil {
		t.Fatal(err)
	}
	if got := count() - before; got != 1 {
		t.Errorf("one ReadAsOf added %d query.sql_ns samples, want 1", got)
	}
}
