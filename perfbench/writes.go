package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// walHistograms are the log's latency histograms, with the per-layer
// metric each one's median feeds.
var walHistograms = []struct{ hist, metric string }{
	{"wal.append_ns", "wal.append_us"},
	{"wal.fsync_ns", "wal.fsync_us"},
	{"wal.commit_ns", "wal.commit_wait_us"},
}

// writes are the measured write statements of one run.
type writes struct {
	lat   []time.Duration
	busy  time.Duration
	stmts int
	delta writeCounters // what the statements added to the counters
}

// writeCounters are the counters the write phase is measured by.
type writeCounters struct {
	records, fsyncs, versions, walBytes, archives int64
	buckets                                       map[string]map[int64]int64 // histogram → bucket upper bound (ns) → observations
}

func (r *run) writeCounters() (writeCounters, error) {
	sys := r.env.Sys
	st := sys.Stats()
	c := writeCounters{
		records:  st.WALAppends,
		fsyncs:   st.WALFsyncs,
		versions: st.Epoch,
		buckets:  map[string]map[int64]int64{},
	}
	var err error
	if c.walBytes, err = walBytes(filepath.Join(r.dir, "wal")); err != nil {
		return c, err
	}
	for _, t := range historyTables(sys) {
		if s, ok := sys.SegmentStore(t); ok {
			c.archives += int64(s.Archives())
		}
	}
	snap := sys.MetricsSnapshot()
	for _, h := range walHistograms {
		m := map[int64]int64{}
		for _, b := range snap.Histograms[h.hist].Buckets {
			m[b.UpperNS] = b.Count
		}
		c.buckets[h.hist] = m
	}
	return c, nil
}

// plus returns acc + (to - from): the counts of one stretch of writes
// added to acc.
func (acc writeCounters) plus(from, to writeCounters) writeCounters {
	d := writeCounters{
		records:  acc.records + to.records - from.records,
		fsyncs:   acc.fsyncs + to.fsyncs - from.fsyncs,
		versions: acc.versions + to.versions - from.versions,
		walBytes: acc.walBytes + to.walBytes - from.walBytes,
		archives: acc.archives + to.archives - from.archives,
		buckets:  map[string]map[int64]int64{},
	}
	for h, m := range to.buckets {
		d.buckets[h] = map[int64]int64{}
		for upper, n := range m {
			d.buckets[h][upper] = acc.buckets[h][upper] + n - from.buckets[h][upper]
		}
	}
	return d
}

// writePhase runs n statements of the script through ExecDurable, one
// at a time, with a checkpoint before the last replay statements, so
// recovery replays the same amount of log in every workload. Neither
// the checkpoint's time nor its log work counts as write work.
// Reference timings fall between statements, and each statement is
// scaled by the ones around it.
func (r *run) writePhase(sc *script, n int) (*writes, error) {
	sys := r.env.Sys
	from, err := r.writeCounters()
	if err != nil {
		return nil, err
	}
	ws := &writes{stmts: n}
	var (
		tp    tape
		lat   []timed // acknowledged statements
		walls []timed // stretches of statements between marks
	)
	tp.mark()
	start := time.Now()
	for k := range n {
		if k == max(0, n-r.c.replay) {
			walls = append(walls, tp.stamp(time.Since(start)))
			to, err := r.writeCounters()
			if err != nil {
				return nil, err
			}
			ws.delta = ws.delta.plus(from, to)
			if err := sys.Checkpoint(); err != nil {
				return nil, err
			}
			if from, err = r.writeCounters(); err != nil {
				return nil, err
			}
			start = time.Now()
		}
		if sc.tick() {
			sys.SetClock(sys.Clock().AddDays(1))
		}
		sql := sc.next()
		t := time.Now()
		_, err := sys.ExecDurable(sql)
		d := time.Since(t)
		r.attempted++
		if err != nil {
			r.failed++
		} else {
			lat = append(lat, tp.stamp(d))
		}
		if tp.due() {
			walls = append(walls, tp.stamp(time.Since(start)))
			tp.mark()
			start = time.Now()
		}
	}
	walls = append(walls, tp.stamp(time.Since(start)))
	tp.mark()
	ws.lat = tp.scaled(lat)
	ws.busy = sum(tp.scaled(walls))
	to, err := r.writeCounters()
	if err != nil {
		return nil, err
	}
	ws.delta = ws.delta.plus(from, to)
	return ws, nil
}

func (r *run) writeMetrics(ws *writes) error {
	if len(ws.lat) < r.c.minSamples {
		return fmt.Errorf("%d acknowledged writes, a p99 needs %d", len(ws.lat), r.c.minSamples)
	}
	n := len(ws.lat)
	r.out.add("write_ops_per_s", float64(n)/ws.busy.Seconds(), "1/s", n)
	r.out.add("write_p50_ms", ms(quantile(ws.lat, 0.5)), "ms", n)
	r.out.add("write_p99_ms", ms(quantile(ws.lat, 0.99)), "ms", n)
	per := func(v int64) float64 { return float64(v) / float64(ws.stmts) }
	r.out.add("wal.records_per_stmt", per(ws.delta.records), "count", n)
	r.out.add("wal.fsyncs_per_stmt", per(ws.delta.fsyncs), "count", n)
	r.out.add("wal.bytes_per_stmt", per(ws.delta.walBytes), "bytes", n)
	r.out.add("relstore.versions_per_stmt", per(ws.delta.versions), "count", n)
	r.out.add("segment.archive_events", float64(ws.delta.archives), "count", n)
	for _, h := range walHistograms {
		p50, total := bucketMedian(ws.delta.buckets[h.hist])
		r.out.add(h.metric, float64(p50)/1e3, "us", int(total))
	}
	return nil
}

// bucketMedian is the upper bound of the histogram bucket holding the
// median observation — the registry's own quantile rule, applied to
// the observations of the measured passes only.
func bucketMedian(b map[int64]int64) (upperNS, total int64) {
	uppers := make([]int64, 0, len(b))
	for u, n := range b {
		uppers = append(uppers, u)
		total += n
	}
	sort.Slice(uppers, func(i, j int) bool { return uppers[i] < uppers[j] })
	var cum int64
	for _, u := range uppers {
		cum += b[u]
		if cum >= (total+1)/2 {
			return u, total
		}
	}
	return 0, total
}
