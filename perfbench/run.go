package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"archis/internal/bench"
	"archis/internal/core"
	"archis/internal/dataset"
	"archis/internal/relstore"
	"archis/internal/wal"
	"archis/internal/xmltree"
)

// workload is one cache budget over the same archive: the synthetic
// employee history in the compressed layout (clustered segments plus
// columnar BlockZIP), built with a WAL.
type workload struct {
	name       string
	blockCache int // decoded-block cache budget, bytes
	pageCache  int // page cache budget, pages
}

// Every workload reports every end-to-end metric: a closed read loop,
// then a write phase through ExecDurable, then timed recoveries.
var workloads = []workload{
	// The whole working set stays decoded: executor CPU dominates.
	{name: "read-warm", blockCache: 64 << 20, pageCache: relstore.DefaultCachePages},
	// Both caches far below the working set: every query inflates and
	// decodes what it touches.
	{name: "read-cold", blockCache: 1 << 20, pageCache: 64},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config sizes one run. defaultConfig is the benchmark; the smoke test
// shrinks it.
type config struct {
	seed       int64
	seconds    time.Duration
	trace      bool
	workdir    string // directory for the run's WAL and snapshots
	employees  int    // steady-state employees before the ×2 scale
	years      int
	writeRate  int    // statements of the write phase per second of --seconds
	replay     int    // statements after the write phase's checkpoint, which recovery replays
	recoveries int    // timed recoveries, whose median is recover_s
	minSamples int    // pooled samples a p99 needs
	cycles     int    // traced-pass cycles (each one untraced and one traced suite)
	corrupt    string // test hook: falsify this query's reference answer
}

func defaultConfig() config {
	return config{
		seed:       1,
		seconds:    12 * time.Second,
		workdir:    ".bench_build",
		employees:  800,
		years:      17,
		writeRate:  1500,
		replay:     2000,
		recoveries: 5,
		minSamples: 1000,
		cycles:     10,
	}
}

// dataset is the archive's history. Its generator seed stays fixed:
// archives grown from different seeds differ in shape enough to halve
// or double single queries (cold Q3 by 2x), which would swamp every
// bound. --seed drives the writer's script instead.
func (c config) dataset() dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Employees = c.employees
	cfg.Years = c.years
	return cfg.Scaled(2)
}

// maxPhase bounds a measured phase that cannot gather enough samples,
// so a run still ends well inside its time limit.
const maxPhase = 90 * time.Second

// run is the state of one workload run.
type run struct {
	c   config
	w   workload
	dir string
	env *bench.Env
	ref map[string]string // plain-layout answers

	out                  *results
	attempted, failed    int64
	workingSet, resident int64
	blockHit, pageHit    float64
}

func runWorkload(c config, w workload) (*results, error) {
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.workdir, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{c: c, w: w, dir: dir, out: newResults()}
	if err := r.reference(); err != nil {
		return nil, fmt.Errorf("reference build: %w", err)
	}
	if err := r.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if r.env.Sys != nil {
			r.env.Sys.Close()
		}
	}()
	if err := r.body(); err != nil {
		return nil, err
	}
	r.out.header = r.describe()
	r.out.attempted, r.out.failed = r.attempted, r.failed
	return r.out, nil
}

func (r *run) body() error {
	// At the default GOGC the collector marked for about half of the
	// read phase (a 120 ms mark every 220 ms), so every latency had two
	// modes, with and without marking, and its median sat between them
	// and jumped. At 300 a cycle starts a quarter as often and the
	// median lies in the first mode; the collector's cost still counts
	// in read_ops_per_s and write_ops_per_s. Reference build and set-up
	// keep the default.
	defer debug.SetGCPercent(debug.SetGCPercent(300))
	warm, err := answers(r.env)
	if err != nil {
		return err
	}
	if err := sameAnswers("answer", r.ref, warm); err != nil {
		return err
	}
	live, err := r.liveIDs()
	if err != nil {
		return err
	}
	sc := newScript(r.c.seed, live, r.env.SingleID, r.env.Cfg.Departments)
	runtime.GC()
	if err := r.readLoop(); err != nil {
		return err
	}
	if r.c.trace {
		if err := r.tracePass(r.ref); err != nil {
			return err
		}
	}
	runtime.GC()
	ws, err := r.writePhase(sc, max(1, int(float64(r.c.writeRate)*r.c.seconds.Seconds())))
	if err != nil {
		return err
	}
	if err := r.writeMetrics(ws); err != nil {
		return err
	}
	return r.recover()
}

// reference builds the same history in the plain layout and keeps its
// answers. It is not part of set-up.
func (r *run) reference() error {
	plain, err := bench.Build(r.c.dataset(), bench.Options{Layout: core.LayoutPlain})
	if err != nil {
		return err
	}
	r.ref, err = answers(plain)
	if err != nil {
		return err
	}
	if r.c.corrupt != "" {
		r.ref[r.c.corrupt] += "corrupted\n"
	}
	runtime.GC()
	return nil
}

// setup builds the measured archive: generation with WAL capture,
// compression of the frozen segments, and a checkpoint.
func (r *run) setup() error {
	var tp tape
	gen, err := tp.during(func() error {
		env, err := bench.Build(r.c.dataset(), bench.Options{
			Layout:          core.LayoutCompressed,
			BlockCacheBytes: r.w.blockCache,
			WALDir:          filepath.Join(r.dir, "wal"),
			// Statements are logged but acknowledged before any fsync; the log
			// is synced at checkpoints and Close. Under SyncAlways the write
			// metrics follow the device's fsync latency, which on a 2-CPU
			// shared VM swung 2-3x within minutes (write p99 2.9-9.6 ms over
			// five runs), beyond any bound; the program's own write path is
			// what code changes move.
			WALSync: wal.SyncNone,
		})
		r.env = env
		return err
	})
	if err != nil {
		return err
	}
	env := r.env
	compress, err := tp.during(env.Sys.CompressFrozen)
	if err != nil {
		return err
	}
	ckpt, err := tp.during(env.Sys.Checkpoint)
	if err != nil {
		return err
	}
	r.out.add("setup_s", tp.nominal(gen+compress+ckpt).Seconds(), "s", 1)
	env.Sys.DB.SetCacheCapacity(r.w.pageCache)

	r.out.add("dataset.generate_s", tp.nominal(gen).Seconds(), "s", 1)
	r.out.add("blockzip.compress_frozen_s", tp.nominal(compress).Seconds(), "s", 1)
	var segs, blocks int
	for _, t := range historyTables(env.Sys) {
		if st, ok := env.Sys.SegmentStore(t); ok {
			n, err := st.SegmentCount()
			if err != nil {
				return err
			}
			segs += n
		}
		if cs, ok := env.Sys.CompressedStore(t); ok {
			n, err := cs.BlockCount()
			if err != nil {
				return err
			}
			blocks += n
		}
	}
	r.out.add("segment.segments", float64(segs), "count", 1)
	r.out.add("blockzip.blocks", float64(blocks), "count", 1)
	r.workingSet = int64(env.Sys.StorageBytes())
	return nil
}

func (r *run) liveIDs() ([]int64, error) {
	res, err := r.env.Sys.Exec(`select id from employee order by id`)
	if err != nil {
		return nil, err
	}
	ids := make([]int64, 0, len(res.Rows))
	for _, row := range res.Rows {
		id, _ := row[0].AsInt()
		ids = append(ids, id)
	}
	return ids, nil
}

// readLoop is the measured read phase: one client in a closed loop
// cycling the suite for --seconds, and on until the pooled sample
// supports a p99. Reference timings fall between cycles, and each read
// is scaled by the ones around it.
func (r *run) readLoop() error {
	sys := r.env.Sys
	texts := r.texts()
	s0 := sys.DB.Stats()
	var (
		tp    tape
		lat   = make([][]timed, len(suite))
		walls []timed // per cycle
		n     int
	)
	tp.mark()
	start := time.Now()
	for time.Since(start) < r.c.seconds || n < r.c.minSamples {
		if time.Since(start) > maxPhase {
			return fmt.Errorf("read loop: %d reads in %v, a p99 needs %d", n, maxPhase, r.c.minSamples)
		}
		c0 := time.Now()
		for i, q := range suite {
			ans, _, d, err := q.exec(sys, texts[i])
			r.attempted++
			if err != nil {
				r.failed++
				continue
			}
			if ans != r.ref[q.name] {
				return fmt.Errorf("%s answer %q, expected %q", q.name, ans, r.ref[q.name])
			}
			lat[i] = append(lat[i], tp.stamp(d))
			n++
		}
		walls = append(walls, tp.stamp(time.Since(c0)))
		if tp.due() {
			tp.mark()
		}
	}
	tp.mark()
	r.cacheMetrics(s0, sys.DB.Stats())
	scaled := make([][]time.Duration, len(suite))
	for i, q := range suite {
		scaled[i] = tp.scaled(lat[i])
		if err := r.addP50(q.name, scaled[i]); err != nil {
			return err
		}
	}
	r.out.add("host.ref_us", us(tp.median()), "us", len(tp.ref))
	return r.pooled(scaled, float64(n)/sum(tp.scaled(walls)).Seconds())
}

func (r *run) texts() []string {
	out := make([]string, len(suite))
	for i, q := range suite {
		out[i] = q.text(r.env)
	}
	return out
}

func (r *run) addP50(name string, lat []time.Duration) error {
	if len(lat) == 0 {
		return fmt.Errorf("%s: no successful reads", name)
	}
	r.out.add(name+"_p50_ms", ms(quantile(lat, 0.5)), "ms", len(lat))
	return nil
}

// pooled reports the p99 over all reads of lat, and the read rate.
func (r *run) pooled(lat [][]time.Duration, opsPerSec float64) error {
	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	if len(all) < r.c.minSamples {
		return fmt.Errorf("%d reads, a p99 needs %d", len(all), r.c.minSamples)
	}
	r.out.add("read_p99_ms", ms(quantile(all, 0.99)), "ms", len(all))
	r.out.add("read_ops_per_s", opsPerSec, "1/s", len(all))
	return nil
}

func (r *run) cacheMetrics(s0, s1 relstore.Stats) {
	r.blockHit = ratio(s1.BlockCacheHits-s0.BlockCacheHits, s1.BlockCacheMisses-s0.BlockCacheMisses)
	r.pageHit = ratio(s1.CacheHits-s0.CacheHits, s1.BlockReads-s0.BlockReads)
	r.resident = s1.BlockCacheBytes
	r.out.add("relstore.block_cache_hit_rate", r.blockHit, "share", 1)
	r.out.add("relstore.page_cache_hit_rate", r.pageHit, "share", 1)
}

// ratio is hits ÷ (hits + misses), 0 when nothing was looked up.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// storage reports the archive's stored bytes per byte of its
// H-documents, as the paper's Figs 11/13 do.
func (r *run) storage() error {
	hdoc := 0
	for _, t := range []string{"employee", "dept"} {
		doc, err := r.env.Sys.PublishHDoc(t)
		if err != nil {
			return err
		}
		hdoc += len(xmltree.String(doc))
	}
	r.out.add("htable.hdoc_bytes", float64(hdoc), "bytes", 1)
	r.out.add("storage_ratio", float64(r.env.Sys.StorageBytes())/float64(hdoc), "ratio", 1)
	return nil
}

// recover closes the live system, recovers its directory several
// times, and checks that every recovered system answers and counts
// exactly as the live one did at Close. Recovery writes nothing to the
// directory, so each one replays the same log; recover_s is their
// median.
func (r *run) recover() error {
	sys := r.env.Sys
	if err := r.storage(); err != nil {
		return err
	}
	live, err := answers(r.env)
	if err != nil {
		return err
	}
	for _, q := range suite {
		if err := afterWrites(q.name, r.ref[q.name], live[q.name]); err != nil {
			return err
		}
	}
	counts, err := rowCounts(sys)
	if err != nil {
		return err
	}
	if err := sys.Close(); err != nil {
		return err
	}
	// Drop the live system, so every recovery starts from the same
	// small heap.
	r.env.Sys = nil
	var (
		tp       tape
		times    []time.Duration
		replayed int64
	)
	for range r.c.recoveries {
		d, n, err := r.recoverOnce(&tp, live, counts)
		if err != nil {
			return err
		}
		times, replayed = append(times, d), n
	}
	recoverS := tp.nominal(quantile(times, 0.5)).Seconds()
	r.out.add("recover_s", recoverS, "s", len(times))
	if !r.c.trace {
		return nil
	}
	var loads []time.Duration
	tp = tape{}
	for range 3 {
		d, err := tp.during(func() error {
			_, err := core.Open(filepath.Join(r.dir, "wal", core.SnapshotFile))
			return err
		})
		if err != nil {
			return err
		}
		loads = append(loads, d)
	}
	load := tp.nominal(quantile(loads, 0.5)).Seconds()
	r.out.add("core.snapshot_load_s", load, "s", len(loads))
	perRecord := 0.0
	if replayed > 0 {
		perRecord = (recoverS - load) / float64(replayed) * 1e6
	}
	r.out.add("core.replay_us_per_record", perRecord, "us", int(replayed))
	return nil
}

// recoverOnce times one core.Recover of the run's directory, marking
// tp meanwhile, checks the recovered system against the live answers
// and H-table row counts, and closes it. It returns the time and the
// records replayed.
func (r *run) recoverOnce(tp *tape, live, counts map[string]string) (time.Duration, int64, error) {
	// Collect the last recovered system: each recovery starts from the
	// same heap.
	runtime.GC()
	var rec *core.System
	d, err := tp.during(func() error {
		var err error
		rec, err = core.Recover(filepath.Join(r.dir, "wal"), nil)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	defer rec.Close()
	bench.RegisterMaxRaise(rec.Engine) // Q6's aggregate is registered code, not logged state
	renv := *r.env
	renv.Sys = rec
	got, err := answers(&renv)
	if err != nil {
		return 0, 0, fmt.Errorf("recovered: %w", err)
	}
	if err := sameAnswers("recovered answer", live, got); err != nil {
		return 0, 0, err
	}
	gotCounts, err := rowCounts(rec)
	if err != nil {
		return 0, 0, fmt.Errorf("recovered: %w", err)
	}
	if err := sameAnswers("recovered H-table rows", counts, gotCounts); err != nil {
		return 0, 0, err
	}
	return d, rec.Stats().WALReplayedRecords, rec.Close()
}

// walBytes sums the sizes of the log's segment files.
func walBytes(dir string) (int64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of ds (0 when empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.999999) - 1
	return s[max(0, min(k, len(s)-1))]
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// describe is the run's header line: data set, layout and budgets.
func (r *run) describe() string {
	g := r.env.Gen
	return fmt.Sprintf("%d employees x %d years (%d inserts, %d updates, %d deletes), compressed layout, WAL SyncNone, GOMAXPROCS 1; "+
		"working set %d B stored, %d B decoded resident; block cache %d B (hit rate %.3f); page cache %d pages = %d B (hit rate %.3f)",
		r.env.Cfg.Employees, r.env.Cfg.Years, g.Inserts, g.Updates, g.Deletes,
		r.workingSet, r.resident, r.w.blockCache, r.blockHit, r.w.pageCache, r.w.pageCache*relstore.PageSize, r.pageHit)
}
