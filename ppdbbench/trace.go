package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/policydsl"
	"repro/internal/ppdb"
	"repro/internal/privacy"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/wal"
	"repro/internal/whatif"
)

// span is one timed call at a layer boundary. Children are calls the
// parent's work includes; in this benchmark they are replayed next to the
// parent (on a twin or a mirror) rather than observed inside it, so self
// time is the parent's duration minus its children's durations. Aside
// spans are extra measurements (loopback client latency, the offline
// what-if) that belong to no op's causal path.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for roots
	Op     int    `json:"op"`     // op id; -1 for set-up
	Class  string `json:"class"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Aside  bool   `json:"aside,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0    time.Time
	spans []span
	op    int
	class string
}

// time runs f as a span and returns its id.
func (t *tracer) time(parent int, layer, name string, f func()) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Class: t.class, Name: name, Layer: layer,
		Start: int64(time.Since(t.t0))})
	f()
	t.spans[id].End = int64(time.Since(t.t0))
	return id
}

func (t *tracer) aside(layer, name string, f func()) {
	id := t.time(-1, layer, name, f)
	t.spans[id].Aside = true
}

// selfTimes is the self-time arithmetic: each span's duration minus the
// durations of its direct children. Aside spans have no children and are
// nobody's child. Because children are replays rather than nested calls,
// one op's self time carries the difference of two independent draws of
// anything that varies between calls (the WAL's group-commit wait above
// all) and can come out negative; it is not floored, so that medians over
// many ops and per-layer totals stay unbiased.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layers are the modules a traced op passes through.
var layers = []string{"httpapi", "policydsl", "ppdb", "core", "ledger", "wal", "relational", "query", "whatif"}

// layerUnits lists every per-layer metric and its unit.
var layerUnits = map[string]string{
	"httpapi.ingest_self_us":               "us",
	"httpapi.self_audit_self_us":           "us",
	"httpapi.query_self_ms":                "ms",
	"httpapi.query_resp_bytes":             "bytes",
	"httpapi.certify_self_ms":              "ms",
	"httpapi.certify_resp_bytes":           "bytes",
	"httpapi.loopback_us":                  "us",
	"policydsl.parse_us_per_provider":      "us",
	"policydsl.policy_parse_ms":            "ms",
	"ppdb.register_provider_us":            "us",
	"ppdb.register_providers_ms_per_1k":    "ms",
	"ppdb.self_audit_us":                   "us",
	"ppdb.query_enforced_ms":               "ms",
	"ppdb.point_query_us":                  "us",
	"ppdb.whatif_narrow_ms":                "ms",
	"ppdb.whatif_full_ms":                  "ms",
	"ppdb.set_policy_ms":                   "ms",
	"ppdb.certify_ms":                      "ms",
	"ppdb.recover_s":                       "s",
	"core.compile_prefs_us":                "us",
	"core.assess_compiled_ns_per_provider": "ns",
	"core.new_assessor_ms":                 "ms",
	"ledger.upsert_compiled_us":            "us",
	"ledger.rebuild_ms":                    "ms",
	"ledger.snapshot_ms":                   "ms",
	"ledger.memo_hit_ratio":                "fraction",
	"ledger.memo_lookups":                  "count",
	"wal.append_us":                        "us",
	"wal.commit_wait_us":                   "us",
	"wal.fsync_wait_us":                    "us",
	"wal.commit_wait_share":                "fraction",
	"wal.records_per_fsync":                "count",
	"wal.bytes_per_record":                 "bytes",
	"wal.replay_records_per_s":             "1/s",
	"relational.parse_us":                  "us",
	"relational.scan_ns_per_row":           "ns",
	"query.plan_us":                        "us",
	"query.rows_scanned_per_returned":      "ratio",
	"query.rows_suppressed_frac":           "fraction",
	"query.allocs_per_row":                 "count",
	"whatif.apply_diff_us":                 "us",
	"whatif.new_engine_ms":                 "ms",
	"whatif.memo_reuse_ratio":              "fraction",
	"whatif.evaluate_offline_ms":           "ms",
	"runtime.gc_cpu_frac":                  "fraction",
	"runtime.alloc_bytes_per_op":           "bytes",
	"runtime.gc_pause_p99_us":              "us",
	"trace.ops_per_s":                      "1/s",
	"httpapi.time_share":                   "fraction",
	"policydsl.time_share":                 "fraction",
	"ppdb.time_share":                      "fraction",
	"core.time_share":                      "fraction",
	"ledger.time_share":                    "fraction",
	"wal.time_share":                       "fraction",
	"relational.time_share":                "fraction",
	"query.time_share":                     "fraction",
	"whatif.time_share":                    "fraction",
}

// mirror is the benchmark's own copy of the lower layers, kept in step
// with the served DB so their public functions can be timed on the same
// inputs: the live assessor, a ledger, a WAL, compiled preferences, and
// (analyst-scan) the records table with a query engine over it.
type mirror struct {
	policy   *privacy.HousePolicy
	attrSens privacy.AttributeSensitivities
	asr      *core.Assessor
	version  uint64
	led      *ledger.Ledger
	log      *wal.Log
	prefs    map[string]*privacy.Prefs
	compiled map[string]*core.CompiledPrefs
	vers     map[string]uint64
	seq      uint64

	table  *relational.Table
	origin map[relational.RowID]string
	engine *query.Engine

	shards  int
	src     []whatif.ShardSource // cached snapshot for what-ifs, see sources
	srcVers [][]uint64
}

// mirrorSource adapts the mirror to query.Source the way ppdb adapts the
// DB: provenance from the row map, preferences from the mirror, no
// hierarchies, and a clock that never advances past the load instant.
type mirrorSource struct{ m *mirror }

func (s mirrorSource) Origin(_ string, id relational.RowID) (string, time.Time, bool) {
	p, ok := s.m.origin[id]
	return p, time.Time{}, ok
}

func (s mirrorSource) Provider(key string) (*privacy.Prefs, *core.CompiledPrefs, bool) {
	p, ok := s.m.prefs[key]
	return p, s.m.compiled[key], ok
}

func (s mirrorSource) Expired(privacy.Level, time.Time) bool { return false }

func (s mirrorSource) Generalize(_ string, v relational.Value, _ privacy.Level) relational.Value {
	return v
}

func (s mirrorSource) HasHierarchy(string) bool { return false }

func (m *mirror) setPolicy(hp *privacy.HousePolicy, asr *core.Assessor) {
	m.policy, m.asr = hp, asr
	m.version++
	m.src = nil
}

func (m *mirror) put(p *privacy.Prefs, c *core.CompiledPrefs) {
	key := canon(p.Provider)
	m.seq++
	m.prefs[key], m.compiled[key], m.vers[key] = p, c, m.seq
	m.src = nil
}

// sources returns (and caches) the mirror population as what-if shard
// sources, partitioned by core.ShardIndex exactly as the served DB shards
// it and in ascending key order within a shard, so that replays fan out
// over the same shards as the calls they stand in for.
func (m *mirror) sources() []whatif.ShardSource {
	if m.src != nil {
		return m.src
	}
	keys := make([]string, 0, len(m.prefs))
	for k := range m.prefs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	m.src = make([]whatif.ShardSource, m.shards)
	m.srcVers = make([][]uint64, m.shards)
	for _, k := range keys {
		i := core.ShardIndex(k, m.shards)
		src := &m.src[i]
		src.Keys = append(src.Keys, k)
		src.Prefs = append(src.Prefs, m.prefs[k])
		src.Compiled = append(src.Compiled, m.compiled[k])
		m.srcVers[i] = append(m.srcVers[i], m.vers[k])
	}
	return m.src
}

// rtSample reads the runtime counters the traced run reports on.
type rtSample struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
	allocObjects    uint64
	pauses          *rtmetrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() rtSample {
	samples := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	rtmetrics.Read(samples)
	var s rtSample
	if samples[0].Value.Kind() == rtmetrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == rtmetrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == rtmetrics.KindUint64 {
		s.allocBytes = samples[2].Value.Uint64()
	}
	if samples[3].Value.Kind() == rtmetrics.KindUint64 {
		s.allocObjects = samples[3].Value.Uint64()
	}
	if samples[4].Value.Kind() == rtmetrics.KindFloat64Histogram {
		s.pauses = samples[4].Value.Float64Histogram()
	}
	return s
}

// pauseP99 is the p99 of the GC pauses between two histogram reads, in µs,
// interpolated linearly within its bucket by rank.
func pauseP99(a, b *rtmetrics.Float64Histogram) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := (total*99 + 99) / 100
	var acc uint64
	for i, n := range delta {
		if acc+n >= want {
			lo, hi := b.Buckets[i], b.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo * 1e6
			}
			return (lo + (hi-lo)*float64(want-acc)/float64(n)) * 1e6
		}
		acc += n
	}
	return 0
}

func counter(name string, labels ...string) uint64 {
	return metrics.Default.Counter(name, "", labels...).Value()
}

// traced is the state of one in-process traced run.
type traced struct {
	s      *schedule
	main   *ppdb.DB
	twin   *ppdb.DB
	api    *httpapi.Server
	m      *mirror
	tr     tracer
	loop   *http.Client
	base   string
	shards int

	batchParse time.Duration // policydsl.Parse of the set-up batches
	batchN     int           // providers in them
	batchReg   []float64     // twin RegisterProviders per batch, ms per 1k
	n          tally         // the measured ops' counts (reset after the warm-up)
}

// tally accumulates what the ops of a traced run count besides spans.
type tally struct {
	respBytes   map[opKind][]float64
	allocBytes  float64
	scanned     int
	returned    int
	suppressed  int
	queryAllocs uint64
	memoHits    uint64
	memoMisses  uint64
	memoReused  int
	whatifN     int
	walRecs     [][]byte
	scanNs      []float64
	assessNs    []float64
}

// runTraced is the traced run: the same schedule, in-process. Every op is
// served by (*httpapi.Server).ServeHTTP into a recorder on the main DB
// (WAL attached); the same inputs are then fed to the public functions of
// each layer — mutations on a twin DB (no WAL: its calls time the CPU
// side, and the mirror's WAL times the log) or on the mirror, reads on
// the main DB.
func runTraced(env *runEnv, s *schedule) (*runResult, error) {
	t := &traced{s: s, n: tally{respBytes: map[opKind][]float64{}}}
	var err error
	if t.main, err = newDB(s, 0); err != nil {
		return nil, err
	}
	t.shards = t.main.ShardCount()
	if t.twin, err = newDB(s, t.shards); err != nil {
		return nil, err
	}
	mainWAL := filepath.Join(env.work, "main-wal")
	if _, err := t.main.AttachWAL(tracedWAL(mainWAL)); err != nil {
		return nil, err
	}
	//lint:ignore errflow teardown after the result is computed; a close failure cannot change it
	defer t.main.CloseWAL()
	accessLog, err := os.Create(filepath.Join(env.work, "access.log"))
	if err != nil {
		return nil, err
	}
	//lint:ignore errflow the access log is the server's default output, never read back
	defer accessLog.Close()
	if t.api, err = httpapi.NewWith(t.main, httpapi.Options{RequestLog: log.New(accessLog, "", log.LstdFlags)}); err != nil {
		return nil, err
	}
	if t.m, err = newMirror(s, t.shards, filepath.Join(env.work, "mirror-wal")); err != nil {
		return nil, err
	}
	//lint:ignore errflow teardown after the result is computed; a close failure cannot change it
	defer t.m.log.Close()

	// A loopback listener on the same handler, for the client-side view
	// of cheap routes.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: t.api}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		//lint:ignore errflow closing the loopback listener at the end of the run; Serve's exit is reaped below
		_ = hs.Close()
		<-served
	}()
	t.loop, t.base = newClient(), "http://"+ln.Addr().String()

	if err := t.setup(); err != nil {
		return nil, err
	}
	res := &runResult{metrics: map[string]float64{}, info: map[string]any{}}
	for i := range s.Warmup {
		t.runOp(&s.Warmup[i], res)
	}
	t.tr = tracer{t0: time.Now()}
	t.n = tally{respBytes: map[opKind][]float64{}}
	rt0 := readRuntime()
	start := time.Now()
	for i := range s.Ops {
		t.runOp(&s.Ops[i], res)
	}
	wall := time.Since(start)
	rt1 := readRuntime()
	res.attempted = len(s.Warmup) + len(s.Ops)

	if err := t.recover(env, mainWAL, res); err != nil {
		return nil, err
	}
	if err := t.groupCommit(env, res); err != nil {
		return nil, err
	}
	t.report(res, wall, rt0, rt1)
	if err := t.writeSpans(env); err != nil {
		return nil, err
	}
	return res, nil
}

// tracedWAL is the WAL configuration of the traced run: every append is
// fsynced at once (SyncEvery 1). Under the server's 2 ms group-commit timer
// the served log's and the mirror's tickers fire together, so the mirror's
// append, made just after the served commit, waits almost a whole tick:
// the replayed wait exceeds the served one and self times go negative
// (STEADINESS.md shows the runs). An immediate fsync costs the same on
// every log. The timer's share is measured apart, by groupCommit, under the
// server's own policy.
func tracedWAL(dir string) wal.Options {
	return wal.Options{Dir: dir, SyncEvery: 1}
}

// groupCommitRecords caps the records groupCommit replays.
const groupCommitRecords = 1000

// groupCommit replays the run's WAL records (at most groupCommitRecords)
// through a fresh log with the server's group-commit policy (2 ms timer,
// 64 pending), from as many closed-loop writers as the workload has
// clients, and reports the commit wait and the records per fsync.
func (t *traced) groupCommit(env *runEnv, res *runResult) error {
	recs := t.n.walRecs
	if len(recs) > groupCommitRecords {
		recs = recs[:groupCommitRecords]
	}
	if len(recs) == 0 {
		res.metrics["wal.commit_wait_us"] = 0
		res.metrics["wal.records_per_fsync"] = 0
		return nil
	}
	lg, err := wal.Open(wal.Options{Dir: filepath.Join(env.work, "group-wal"), SyncInterval: 2 * time.Millisecond, SyncEvery: 64})
	if err != nil {
		return err
	}
	appends0, fsyncs0 := counter("wal_append_records_total"), counter("wal_fsync_total")
	waits := make([]float64, len(recs))
	errs := make([]error, t.s.Clients)
	var wg sync.WaitGroup
	for c := 0; c < t.s.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(recs); i += t.s.Clients {
				lsn, err := lg.AppendAsync(wal.Record{Type: 1, Data: recs[i]})
				if err != nil {
					errs[c] = err
					return
				}
				t0 := time.Now()
				if err := lg.WaitDurable(lsn); err != nil {
					errs[c] = err
					return
				}
				waits[i] = float64(time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	appends, fsyncs := counter("wal_append_records_total")-appends0, counter("wal_fsync_total")-fsyncs0
	if err := lg.Close(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	res.metrics["wal.commit_wait_us"] = median(waits) / float64(time.Microsecond)
	res.metrics["wal.records_per_fsync"] = ratio(float64(appends), float64(fsyncs))
	return nil
}

func newMirror(s *schedule, shards int, walDir string) (*mirror, error) {
	doc, err := policydsl.Parse(s.Corpus)
	if err != nil {
		return nil, err
	}
	asr, err := core.NewAssessor(doc.Policy, doc.AttrSens, core.Options{})
	if err != nil {
		return nil, err
	}
	led, err := ledger.NewSharded(asr, 0, shards)
	if err != nil {
		return nil, err
	}
	lg, err := wal.Open(tracedWAL(walDir))
	if err != nil {
		return nil, err
	}
	return &mirror{policy: doc.Policy, attrSens: doc.AttrSens, asr: asr, led: led, log: lg, shards: shards,
		prefs: map[string]*privacy.Prefs{}, compiled: map[string]*core.CompiledPrefs{}, vers: map[string]uint64{}}, nil
}

// serve sends one request through ServeHTTP into a recorder.
func (t *traced) serve(method, path string, body []byte) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	t.api.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec
}

// setup bulk-loads the population (and rows) like the untraced set-up,
// feeding the batch bodies to policydsl.Parse and the parsed providers to
// the twin's RegisterProviders for the per-provider and per-1k metrics.
func (t *traced) setup() error {
	s := t.s
	for i, b := range s.Batches {
		if rec := t.serve("POST", "/v1/providers/batch", b); rec.Code != http.StatusOK {
			return fmt.Errorf("batch %d: status %d: %s", i, rec.Code, tail(rec.Body.Bytes(), 300))
		}
		t0 := time.Now()
		ps, err := prefsOf(b)
		if err != nil {
			return err
		}
		t.batchParse += time.Since(t0)
		t.batchN += len(ps)
		t0 = time.Now()
		if err := t.twin.RegisterProviders(ps); err != nil {
			return err
		}
		t.batchReg = append(t.batchReg, float64(time.Since(t0))/float64(time.Millisecond)*1000/float64(len(ps)))
		items := make([]ledger.Item, len(ps))
		for j, p := range ps {
			c := t.m.asr.Compile(p)
			t.m.put(p, c)
			items[j] = ledger.Item{Key: canon(p.Provider), Prefs: p, Compiled: c, Version: t.m.vers[canon(p.Provider)]}
		}
		t.m.led.UpsertBatch(items)
	}
	if s.RowsCSV == nil {
		return nil
	}
	if rec := t.serve("POST", "/v1/load?table=records", s.RowsCSV); rec.Code != http.StatusOK {
		return fmt.Errorf("row load: status %d: %s", rec.Code, tail(rec.Body.Bytes(), 300))
	}
	if _, err := t.twin.ImportCSV("records", bytes.NewReader(s.RowsCSV)); err != nil {
		return err
	}
	return t.m.loadRows(s)
}

func (m *mirror) loadRows(s *schedule) error {
	schema, err := relational.NewSchema([]relational.Column{
		{Name: "provider", Type: relational.TypeText, PrimaryKey: true},
		{Name: "weight", Type: relational.TypeFloat},
		{Name: "condition", Type: relational.TypeFloat},
	})
	if err != nil {
		return err
	}
	if m.table, err = relational.NewTable("records", schema); err != nil {
		return err
	}
	rows, err := relational.ReadCSV(schema, bytes.NewReader(s.RowsCSV))
	if err != nil {
		return err
	}
	m.origin = make(map[relational.RowID]string, len(rows))
	for _, row := range rows {
		id, err := m.table.Insert(row)
		if err != nil {
			return err
		}
		p, _ := row[0].AsText()
		m.origin[id] = canon(p)
	}
	cat := query.NewCatalog()
	if err := cat.Bind(m.table, "provider", nil); err != nil {
		return err
	}
	m.engine = query.New(cat, m.asr, mirrorSource{m: m})
	return nil
}

// runOp serves one op and replays its inputs layer by layer.
func (t *traced) runOp(o *op, res *runResult) {
	t.tr.op, t.tr.class = o.ID, o.Kind.String()
	var rec *httptest.ResponseRecorder
	before := readRuntime()
	root := t.tr.time(-1, "httpapi", "httpapi.Server.ServeHTTP", func() { rec = t.serve(o.Method, o.Path, o.Body) })
	after := readRuntime()
	t.n.allocBytes += float64(after.allocBytes - before.allocBytes)
	if rec.Code/100 != 2 {
		res.fail("op %d (%s %s): status %d: %s", o.ID, o.Method, o.Path, rec.Code, tail(rec.Body.Bytes(), 300))
		return
	}
	t.n.respBytes[o.Kind] = append(t.n.respBytes[o.Kind], float64(rec.Body.Len()))
	var err error
	switch o.Kind {
	case opIngest:
		err = t.ingest(o, root)
	case opSelfAudit:
		t.tr.time(root, "ppdb", "ppdb.DB.SelfAudit", func() { _, err = t.main.SelfAudit(o.Provider) })
		t.loopback(o)
	case opSummary:
		t.tr.time(root, "ppdb", "ppdb.DB.CertifySummary", func() { _, err = t.main.CertifySummary(0.1) })
		t.loopback(o)
	case opScan, opPoint:
		err = t.query(o, root)
	case opWhatIfNarrow, opWhatIfFull:
		err = t.whatIf(o, root)
	case opCertify:
		c := t.tr.time(root, "ppdb", "ppdb.DB.Certify", func() { _, err = t.main.Certify(0.1) })
		t.tr.time(c, "ledger", "ledger.Ledger.Snapshot", func() { t.m.led.Snapshot() })
	case opSwap:
		err = t.swap(o, root)
	default:
		err = fmt.Errorf("no layer replay for %s", o.Kind)
	}
	if err != nil {
		res.fail("op %d (%s): layer replay: %v", o.ID, o.Kind, err)
	}
}

func (t *traced) loopback(o *op) {
	t.tr.aside("loopback", "client.GET", func() {
		//lint:ignore errflow a failed loopback probe only drops one loopback sample; the op itself was checked
		_, _, _ = call(t.loop, t.base, o.Method, o.Path, nil, false)
	})
}

func (t *traced) ingest(o *op, root int) error {
	var ps []*privacy.Prefs
	var err error
	t.tr.time(root, "policydsl", "policydsl.Parse", func() { ps, err = prefsOf(o.Body) })
	if err != nil {
		return err
	}
	reg := t.tr.time(root, "ppdb", "ppdb.DB.RegisterProviders", func() { err = t.twin.RegisterProviders(ps) })
	if err != nil {
		return err
	}
	p := ps[0]
	var c *core.CompiledPrefs
	t.tr.time(reg, "core", "core.Assessor.Compile", func() { c = t.m.asr.Compile(p) })
	t.m.put(p, c)
	key := canon(p.Provider)
	t.tr.time(reg, "ledger", "ledger.Ledger.UpsertCompiled", func() { t.m.led.UpsertCompiled(key, p, c, t.m.vers[key]) })
	rec, err := json.Marshal([]policydsl.ProviderJSON{policydsl.ProviderToJSON(p)})
	if err != nil {
		return err
	}
	return t.walAppend(root, rec)
}

func (t *traced) walAppend(parent int, data []byte) error {
	t.n.walRecs = append(t.n.walRecs, data)
	var lsn uint64
	var err error
	t.tr.time(parent, "wal", "wal.Log.AppendAsync", func() { lsn, err = t.m.log.AppendAsync(wal.Record{Type: 1, Data: data}) })
	if err != nil {
		return err
	}
	t.tr.time(parent, "wal", "wal.Log.WaitDurable", func() { err = t.m.log.WaitDurable(lsn) })
	return err
}

func (t *traced) query(o *op, root int) error {
	req := ppdb.EnforcedQuery{Requester: "analyst", Purpose: queryPurpose, Visibility: queryVisibility, SQL: o.SQL}
	var res *query.Result
	var err error
	before := readRuntime()
	// On the twin: QueryEnforced appends to the audit log.
	q := t.tr.time(root, "ppdb", "ppdb.DB.QueryEnforced", func() { res, err = t.twin.QueryEnforced(req) })
	after := readRuntime()
	if err != nil {
		return err
	}
	t.n.queryAllocs += after.allocObjects - before.allocObjects
	t.n.scanned += res.Stats.RowsScanned
	t.n.returned += res.Stats.RowsReturned
	t.n.suppressed += res.Stats.RowsSuppressed
	qreq := query.Request{Requester: req.Requester, Purpose: req.Purpose, Visibility: req.Visibility, SQL: req.SQL}
	var mres *query.Result
	e := t.tr.time(q, "query", "query.Engine.Query", func() { mres, err = t.m.engine.Query(qreq) })
	if err != nil {
		return err
	}
	if mres.Stats != res.Stats {
		return fmt.Errorf("mirror query engine disagrees with ppdb: %+v vs %+v", mres.Stats, res.Stats)
	}
	t.tr.time(e, "relational", "relational.Parse", func() { _, err = relational.Parse(o.SQL) })
	if err != nil {
		return err
	}
	t.tr.time(e, "query", "query.Engine.Plan", func() { _, err = t.m.engine.Plan(qreq) })
	if err != nil {
		return err
	}
	if o.Kind == opScan {
		rows := 0
		sid := t.tr.time(e, "relational", "relational.Table.Scan", func() {
			t.m.table.Scan(func(relational.RowID, relational.Row) bool { rows++; return true })
		})
		t.n.scanNs = append(t.n.scanNs, float64(t.tr.spans[sid].dur())/float64(max(rows, 1)))
	}
	return nil
}

func (t *traced) whatIf(o *op, root int) error {
	req := *o.WhatIf
	var resp *whatif.Response
	var err error
	w := t.tr.time(root, "ppdb", "ppdb.DB.WhatIf", func() { resp, err = t.main.WhatIf(&req) })
	if err != nil {
		return err
	}
	t.n.memoReused += resp.MemoReused
	t.n.whatifN += resp.Current.N
	var eng *whatif.Engine
	ne := t.tr.time(w, "whatif", "whatif.NewEngine", func() {
		eng, err = whatif.NewEngine(t.m.asr, t.m.attrSens, core.Options{}, t.m.version, &req, privacy.DefaultScales())
	})
	if err != nil {
		return err
	}
	t.tr.time(ne, "whatif", "whatif.ApplyDiff", func() {
		_, _, _, err = whatif.ApplyDiff(t.m.policy, t.m.attrSens, &req.Diff, "bench", privacy.DefaultScales())
	})
	if err != nil {
		return err
	}
	src := t.m.sources()
	var hits, misses atomic.Uint64
	memo := func(si, i int) (core.ProviderReport, bool) {
		rep, ok := t.m.led.ReportIfCurrent(src[si].Keys[i], t.m.version, t.m.srcVers[si][i])
		if ok {
			hits.Add(1)
		} else {
			misses.Add(1)
		}
		return rep, ok
	}
	ev := t.tr.time(w, "whatif", "whatif.Engine.Evaluate", func() { eng.Evaluate(src, memo) })
	t.n.memoHits += hits.Load()
	t.n.memoMisses += misses.Load()
	if o.Kind != opWhatIfFull {
		return nil
	}
	// One kernel pass over the population, fanned out per shard like the
	// evaluation it stands in for.
	n := 0
	for _, sh := range src {
		n += len(sh.Keys)
	}
	aid := t.tr.time(ev, "core", "core.Assessor.AssessCompiled", func() {
		core.FanOut(len(src), len(src), func(si int) {
			var sc core.Scratch
			for i, c := range src[si].Compiled {
				if c != nil {
					t.m.asr.AssessCompiled(c, &sc)
				} else {
					t.m.asr.AssessRow(src[si].Prefs[i], nil, &sc)
				}
			}
		})
	})
	t.n.assessNs = append(t.n.assessNs, float64(t.tr.spans[aid].dur())/float64(max(n, 1)))
	var pop []*privacy.Prefs
	for _, sh := range src {
		pop = append(pop, sh.Prefs...)
	}
	t.tr.aside("whatif", "whatif.EvaluateOffline", func() {
		_, err = whatif.EvaluateOffline(t.m.policy, t.m.attrSens, core.Options{}, pop, &req)
	})
	return err
}

func (t *traced) swap(o *op, root int) error {
	var doc *policydsl.Document
	var err error
	t.tr.time(root, "policydsl", "policydsl.Parse", func() { doc, err = policydsl.Parse(string(o.Body)) })
	if err != nil {
		return err
	}
	sp := t.tr.time(root, "ppdb", "ppdb.DB.SetPolicy", func() { _, err = t.twin.SetPolicy(doc.Policy) })
	if err != nil {
		return err
	}
	var asr *core.Assessor
	t.tr.time(sp, "core", "core.NewAssessor", func() { asr, err = core.NewAssessor(doc.Policy, t.m.attrSens, core.Options{}) })
	if err != nil {
		return err
	}
	src := t.m.sources()
	t.m.setPolicy(doc.Policy, asr)
	// Recompile everyone, one goroutine per shard like the served DB.
	t.tr.time(sp, "core", "core.Assessor.Compile", func() {
		parts := make([][]*core.CompiledPrefs, len(src))
		core.FanOut(len(src), len(src), func(si int) {
			out := make([]*core.CompiledPrefs, len(src[si].Prefs))
			for i, p := range src[si].Prefs {
				out[i] = asr.Compile(p)
			}
			parts[si] = out
		})
		for si, sh := range src {
			for i, k := range sh.Keys {
				t.m.compiled[k] = parts[si][i]
			}
		}
	})
	t.tr.time(sp, "ledger", "ledger.Ledger.RebuildCompiled", func() { t.m.led.RebuildCompiled(asr, t.m.version, t.m.compiled) })
	rec, err := json.Marshal(policydsl.PolicyToJSON(doc.Policy, nil))
	if err != nil {
		return err
	}
	return t.walAppend(root, rec)
}

// recover times ppdb's WAL recovery on a copy of the main DB's log.
func (t *traced) recover(env *runEnv, mainWAL string, res *runResult) error {
	cp := filepath.Join(env.work, "recover-wal")
	if err := copyDir(mainWAL, cp); err != nil {
		return err
	}
	var records, bytes int64
	entries, err := os.ReadDir(mainWAL)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), ".wal") {
			bytes += fi.Size() - 16
		}
	}
	records = int64(t.main.WALLastLSN())
	db, err := newDB(t.s, t.shards)
	if err != nil {
		return err
	}
	r0 := counter("wal_replay_records_total")
	start := time.Now()
	// Recovery runs with the server's defaults, as a restarted server would.
	n, err := db.AttachWAL(wal.Options{Dir: cp})
	el := time.Since(start)
	if err != nil {
		return err
	}
	replayed := counter("wal_replay_records_total") - r0
	if cerr := db.CloseWAL(); cerr != nil {
		return cerr
	}
	res.metrics["ppdb.recover_s"] = el.Seconds()
	res.metrics["wal.replay_records_per_s"] = float64(replayed) / el.Seconds()
	res.metrics["wal.bytes_per_record"] = float64(bytes) / float64(max(records, 1))
	res.info["recovered_records"] = n
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// report turns the spans and counters into the per-layer metrics.
func (t *traced) report(res *runResult, wall time.Duration, rt0, rt1 rtSample) {
	spans := t.tr.spans
	self := selfTimes(spans)
	byName := map[string][]float64{}      // class/name → self durations in ns
	selfByClass := map[string][]float64{} // class → root self in ns
	layerTotal := map[string]time.Duration{}
	var total, commitWait time.Duration
	var rootDur = map[string][]float64{}
	var loop []float64
	for i, s := range spans {
		if s.Aside {
			if s.Layer == "loopback" {
				loop = append(loop, float64(s.dur()))
			}
			byName[s.Name] = append(byName[s.Name], float64(s.dur()))
			continue
		}
		byName[s.Class+"/"+s.Name] = append(byName[s.Class+"/"+s.Name], float64(s.dur()))
		layerTotal[s.Layer] += self[i]
		total += self[i]
		if s.Name == "wal.Log.WaitDurable" {
			commitWait += s.dur()
		}
		if s.Parent < 0 {
			selfByClass[s.Class] = append(selfByClass[s.Class], float64(self[i]))
			rootDur[s.Class] = append(rootDur[s.Class], float64(s.dur()))
		}
	}
	med := func(vals []float64, unit time.Duration) float64 {
		if len(vals) == 0 {
			return 0
		}
		return median(vals) / float64(unit)
	}
	name := func(k opKind, n string) []float64 { return byName[k.String()+"/"+n] }
	set := func(metric string, v float64) { res.metrics[metric] = v }

	set("httpapi.ingest_self_us", med(selfByClass[opIngest.String()], time.Microsecond))
	set("httpapi.self_audit_self_us", med(selfByClass[opSelfAudit.String()], time.Microsecond))
	set("httpapi.query_self_ms", med(selfByClass[opScan.String()], time.Millisecond))
	set("httpapi.query_resp_bytes", med(t.n.respBytes[opScan], 1))
	set("httpapi.certify_self_ms", med(selfByClass[opCertify.String()], time.Millisecond))
	set("httpapi.certify_resp_bytes", med(t.n.respBytes[opCertify], 1))
	cheap := append(append([]float64(nil), rootDur[opSelfAudit.String()]...), rootDur[opSummary.String()]...)
	if len(loop) > 0 && len(cheap) > 0 {
		set("httpapi.loopback_us", (median(loop)-median(cheap))/float64(time.Microsecond))
	} else {
		set("httpapi.loopback_us", 0)
	}

	var parseNs float64
	parsed := 0
	for _, v := range name(opIngest, "policydsl.Parse") {
		parseNs += v
		parsed++
	}
	parseNs += float64(t.batchParse)
	parsed += t.batchN
	set("policydsl.parse_us_per_provider", parseNs/float64(max(parsed, 1))/1e3)
	set("policydsl.policy_parse_ms", med(name(opSwap, "policydsl.Parse"), time.Millisecond))

	set("ppdb.register_provider_us", med(name(opIngest, "ppdb.DB.RegisterProviders"), time.Microsecond))
	set("ppdb.register_providers_ms_per_1k", med(t.batchReg, 1))
	set("ppdb.self_audit_us", med(name(opSelfAudit, "ppdb.DB.SelfAudit"), time.Microsecond))
	set("ppdb.query_enforced_ms", med(name(opScan, "ppdb.DB.QueryEnforced"), time.Millisecond))
	set("ppdb.point_query_us", med(name(opPoint, "ppdb.DB.QueryEnforced"), time.Microsecond))
	set("ppdb.whatif_narrow_ms", med(name(opWhatIfNarrow, "ppdb.DB.WhatIf"), time.Millisecond))
	set("ppdb.whatif_full_ms", med(name(opWhatIfFull, "ppdb.DB.WhatIf"), time.Millisecond))
	set("ppdb.set_policy_ms", med(name(opSwap, "ppdb.DB.SetPolicy"), time.Millisecond))
	set("ppdb.certify_ms", med(name(opCertify, "ppdb.DB.Certify"), time.Millisecond))

	set("core.compile_prefs_us", med(name(opIngest, "core.Assessor.Compile"), time.Microsecond))
	set("core.assess_compiled_ns_per_provider", med(t.n.assessNs, 1))
	set("core.new_assessor_ms", med(name(opSwap, "core.NewAssessor"), time.Millisecond))

	set("ledger.upsert_compiled_us", med(name(opIngest, "ledger.Ledger.UpsertCompiled"), time.Microsecond))
	set("ledger.rebuild_ms", med(name(opSwap, "ledger.Ledger.RebuildCompiled"), time.Millisecond))
	set("ledger.snapshot_ms", med(name(opCertify, "ledger.Ledger.Snapshot"), time.Millisecond))
	set("ledger.memo_lookups", float64(t.n.memoHits+t.n.memoMisses))
	set("ledger.memo_hit_ratio", ratio(float64(t.n.memoHits), float64(t.n.memoHits+t.n.memoMisses)))

	var appendNs, waitNs []float64
	for _, s := range spans {
		switch s.Name {
		case "wal.Log.AppendAsync":
			appendNs = append(appendNs, float64(s.dur()))
		case "wal.Log.WaitDurable":
			waitNs = append(waitNs, float64(s.dur()))
		}
	}
	set("wal.append_us", med(appendNs, time.Microsecond))
	set("wal.fsync_wait_us", med(waitNs, time.Microsecond))
	set("wal.commit_wait_share", ratio(float64(commitWait), float64(total)))

	var rparse []float64
	for _, k := range []opKind{opScan, opPoint} {
		rparse = append(rparse, name(k, "relational.Parse")...)
	}
	set("relational.parse_us", med(rparse, time.Microsecond))
	set("relational.scan_ns_per_row", med(t.n.scanNs, 1))
	var plans []float64
	for _, k := range []opKind{opScan, opPoint} {
		plans = append(plans, name(k, "query.Engine.Plan")...)
	}
	set("query.plan_us", med(plans, time.Microsecond))
	set("query.rows_scanned_per_returned", ratio(float64(t.n.scanned), float64(t.n.returned)))
	set("query.rows_suppressed_frac", ratio(float64(t.n.suppressed), float64(t.n.scanned)))
	set("query.allocs_per_row", ratio(float64(t.n.queryAllocs), float64(t.n.scanned)))

	var apply, engines []float64
	for _, k := range []opKind{opWhatIfNarrow, opWhatIfFull} {
		apply = append(apply, name(k, "whatif.ApplyDiff")...)
		engines = append(engines, name(k, "whatif.NewEngine")...)
	}
	set("whatif.apply_diff_us", med(apply, time.Microsecond))
	set("whatif.new_engine_ms", med(engines, time.Millisecond))
	set("whatif.memo_reuse_ratio", ratio(float64(t.n.memoReused), float64(t.n.whatifN)))
	set("whatif.evaluate_offline_ms", med(byName["whatif.EvaluateOffline"], time.Millisecond))

	set("runtime.gc_cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
	set("runtime.alloc_bytes_per_op", t.n.allocBytes/float64(max(len(t.s.Ops), 1)))
	set("runtime.gc_pause_p99_us", pauseP99(rt0.pauses, rt1.pauses))
	set("trace.ops_per_s", float64(len(t.s.Ops))/wall.Seconds())
	for _, l := range layers {
		set(l+".time_share", ratio(float64(layerTotal[l]), float64(total)))
	}
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// writeSpans writes the measured spans as JSON lines under
// .bench_build/ppdbbench/traces.
func (t *traced) writeSpans(env *runEnv) error {
	dir := filepath.Join(env.root, ".bench_build", "ppdbbench", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.tr.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", t.s.Workload, t.s.Seed)), buf.Bytes(), 0o644)
}
