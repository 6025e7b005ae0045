package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strings"

	"repro/internal/policydsl"
	"repro/internal/population"
	"repro/internal/privacy"
	"repro/internal/whatif"
)

// Workload names, as passed to --workload.
const (
	wlChurn   = "provider-churn"
	wlScan    = "analyst-scan"
	wlOfficer = "policy-officer"
)

var workloadNames = []string{wlChurn, wlScan, wlOfficer}

// opKind is an op class: every reported latency is per class.
type opKind int

const (
	opIngest opKind = iota // POST /v1/providers, one provider block
	opSelfAudit
	opSummary
	opScan
	opPoint
	opWhatIfNarrow
	opWhatIfFull
	opCertify
	opSwap
	numOpKinds
)

var opKindNames = [numOpKinds]string{
	opIngest:       "ingest",
	opSelfAudit:    "self_audit",
	opSummary:      "summary",
	opScan:         "query_scan",
	opPoint:        "point_query",
	opWhatIfNarrow: "whatif_narrow",
	opWhatIfFull:   "whatif_full",
	opCertify:      "certify",
	opSwap:         "policy_swap",
}

func (k opKind) String() string { return opKindNames[k] }

// op is one scheduled request. Everything the server receives is in
// Method, Path and Body; the remaining fields are what the oracles and the
// traced run need to replay the op in-process.
type op struct {
	ID     int
	Kind   opKind
	Client int
	Method string
	Path   string
	Body   []byte

	Provider string          // canonical key (ingest, self-audit, point query)
	Prefs    *privacy.Prefs  // ingest: the registered preferences
	SQL      string          // scan and point query
	WhatIf   *whatif.Request // what-ifs
	Check    bool            // the oracle re-checks this op's answer
}

// schedule is a whole run, generated from the seed before anything is
// timed: the corpus the server boots from, the bulk-loaded population, the
// rows, and the warm-up and measured op lists.
type schedule struct {
	Workload string
	Seed     uint64
	Clients  int

	Corpus   string // the policy as a DSL document: the server's -corpus
	PolicyV2 string // policy-officer's alternate policy
	Cols     string // the server's -cols

	Population []*privacy.Prefs
	Batches    [][]byte // POST /v1/providers/batch bodies
	RowsCSV    []byte   // POST /v1/load?table=records body (analyst-scan)
	Rows       int

	Warmup []op
	Ops    []op
}

// Population sizes and op counts per workload. Op counts scale with
// --seconds by the throughput the untraced run measured on a 2-vCPU
// (x86-64, go1.24) host, so the measured ops take about --seconds there and
// a run does a fixed amount of work for a given --seconds. Each class
// reported at p50 gets at least minClassSamples samples whatever the rate.
const (
	churnProviders   = 100000
	scanProviders    = 25000
	officerProviders = 10000
	batchSize        = 10000

	churnOpsPerSec    = 900 // measured ops_per_s 850–970
	scanOpsPerSec     = 33  // measured ops_per_s 29–39
	officerCyclesPerS = 4   // measured ops_per_s 37–41, 10 ops a cycle

	minClassSamples = 30
	warmupShare     = 0.1
	scanCheckEvery  = 10 // analyst-scan: every 10th query is re-checked
	recentWindow    = 64 // provider-churn: self-audits pick among the last 64 writes
)

// queryRequester is the requester class analyst-scan queries run as.
const (
	queryPurpose    = "research"
	queryVisibility = 2
)

// buildSchedule generates the whole run for one workload from the seed.
func buildSchedule(workload string, seed uint64, seconds int) (*schedule, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	g := &gen{rng: population.NewRNG(seed), s: &schedule{Workload: workload, Seed: seed}}
	switch workload {
	case wlChurn:
		g.churn(seconds)
	case wlScan:
		g.scan(seconds)
	case wlOfficer:
		g.officer(seconds)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	if err := g.err; err != nil {
		return nil, err
	}
	for i := 0; i < len(g.s.Population); i += batchSize {
		end := min(i+batchSize, len(g.s.Population))
		g.s.Batches = append(g.s.Batches, []byte(policydsl.Render(&policydsl.Document{Providers: g.s.Population[i:end]})))
	}
	return g.s, nil
}

// gen carries the generator state. seq numbers every registration; its
// value is folded into the threshold's fraction so that each registration
// of a provider is recognisable from its reports (the durability probe
// relies on this to find lost upserts).
type gen struct {
	rng *population.RNG
	s   *schedule
	mix *deck // the workload's op-class deck, if it deals from one
	seq int
	err error
}

func (g *gen) threshold() float64 {
	g.seq++
	return float64(10+g.rng.Intn(50)) + float64(g.seq)*1e-7
}

func (g *gen) level(lo, hi int) privacy.Level { return privacy.Level(lo + g.rng.Intn(hi-lo+1)) }

// warmupOps is the untimed warm-up's size for a measured-op count.
func warmupOps(measured int) int { return int(math.Ceil(float64(measured) * warmupShare)) }

// deck deals op classes from shuffled decks of a fixed composition, so a
// run of a given size holds exactly the same number of ops of each class
// whatever the seed; only their order and contents vary.
type deck struct {
	rng   *population.RNG
	kinds []opKind
	cur   []opKind
}

func newDeck(rng *population.RNG, counts map[opKind]int) *deck {
	d := &deck{rng: rng}
	for k := opKind(0); k < numOpKinds; k++ {
		for i := 0; i < counts[k]; i++ {
			d.kinds = append(d.kinds, k)
		}
	}
	return d
}

func (d *deck) next() opKind {
	if len(d.cur) == 0 {
		d.cur = append(d.cur[:0], d.kinds...)
		for i := len(d.cur) - 1; i > 0; i-- {
			j := d.rng.Intn(i + 1)
			d.cur[i], d.cur[j] = d.cur[j], d.cur[i]
		}
	}
	k := d.cur[0]
	d.cur = d.cur[1:]
	return k
}

func ingestBody(p *privacy.Prefs) []byte {
	return []byte(policydsl.Render(&policydsl.Document{Providers: []*privacy.Prefs{p}}))
}

// --- provider-churn ---

const churnPolicyV1 = `policy "churn-v1" {
  attr email {
    tuple purpose=service visibility=house granularity=specific retention=month
    tuple purpose=marketing visibility=third-party granularity=partial retention=year
  }
  attr weight {
    tuple purpose=service visibility=house granularity=partial retention=month
  }
  attr income {
    tuple purpose=service visibility=house granularity=partial retention=week
  }
  sensitivity email 2
  sensitivity weight 4
  sensitivity income 5
}
`

func (g *gen) churnPrefs(name string) *privacy.Prefs {
	p := privacy.NewPrefs(name, g.threshold())
	p.Add("email", privacy.Tuple{Purpose: "service", Visibility: g.level(1, 4), Granularity: g.level(1, 3), Retention: g.level(1, 5)})
	if g.rng.Bern(0.5) {
		p.Add("email", privacy.Tuple{Purpose: "marketing", Visibility: g.level(0, 4), Granularity: g.level(0, 3), Retention: g.level(0, 5)})
	}
	if g.rng.Bern(0.6) {
		p.Add("weight", privacy.Tuple{Purpose: "service", Visibility: g.level(1, 4), Granularity: g.level(1, 3), Retention: g.level(1, 5)})
	}
	if g.rng.Bern(0.4) {
		p.Add("income", privacy.Tuple{Purpose: "service", Visibility: g.level(1, 4), Granularity: g.level(1, 3), Retention: g.level(1, 5)})
		p.SetSensitivity("income", privacy.Sensitivity{Value: float64(1 + g.rng.Intn(3)), Visibility: 1, Granularity: 1, Retention: 1})
	}
	return p
}

// churn: 75% single upserts (60% updates to existing providers, Zipf-like
// skew; 40% new providers), 20% self-audits of recently written providers,
// 5% certify summaries, from 2 clients. Each provider key belongs to one
// client, so a provider's writes keep their schedule order on the server.
func (g *gen) churn(seconds int) {
	s := g.s
	s.Clients = 2
	s.Corpus = churnPolicyV1
	s.Population = make([]*privacy.Prefs, churnProviders)
	keys := make([]string, 0, churnProviders*2)
	for i := range s.Population {
		name := fmt.Sprintf("c%06d", i)
		s.Population[i] = g.churnPrefs(name)
		keys = append(keys, name)
	}
	recent := make([][]string, s.Clients)
	fresh := 0
	g.mix = newDeck(g.rng, map[opKind]int{opIngest: 15, opSelfAudit: 4, opSummary: 1})
	mk := func(id int) op {
		switch g.mix.next() {
		case opIngest:
			var name string
			if g.rng.Bern(0.6) {
				// Zipf-like: rank = n·u³ concentrates updates on low ranks.
				r := g.rng.Float64()
				name = keys[int(float64(len(keys))*r*r*r)]
			} else {
				name = fmt.Sprintf("n%06d", fresh)
				fresh++
				keys = append(keys, name)
			}
			p := g.churnPrefs(name)
			c := clientOf(name, s.Clients)
			recent[c] = append(recent[c], name)
			if len(recent[c]) > recentWindow {
				recent[c] = recent[c][1:]
			}
			return op{ID: id, Kind: opIngest, Client: c, Method: "POST", Path: "/v1/providers",
				Body: ingestBody(p), Provider: name, Prefs: p}
		case opSelfAudit:
			c := g.rng.Intn(s.Clients)
			if len(recent[c]) == 0 {
				c = 1 - c
			}
			var name string
			if len(recent[c]) == 0 {
				name = keys[g.rng.Intn(churnProviders)]
				c = clientOf(name, s.Clients)
			} else {
				name = recent[c][g.rng.Intn(len(recent[c]))]
			}
			return op{ID: id, Kind: opSelfAudit, Client: c, Method: "GET",
				Path: "/v1/self/audit?provider=" + url.QueryEscape(name), Provider: name}
		default:
			return op{ID: id, Kind: opSummary, Client: id % s.Clients, Method: "GET", Path: "/v1/certify/summary?alpha=0.1"}
		}
	}
	measured := max(churnOpsPerSec*seconds, minClassSamples*20)
	g.fill(warmupOps(measured), measured, mk)
}

// clientOf routes a provider key to the client that owns it.
func clientOf(key string, clients int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(clients))
}

// fill generates the warm-up and the measured ops. The measured count is
// rounded up to whole decks, so every seed deals the same count of each
// class.
func (g *gen) fill(warm, measured int, mk func(id int) op) {
	deckSize := len(g.mix.kinds)
	measured = (measured + deckSize - 1) / deckSize * deckSize
	for i := 0; i < warm; i++ {
		g.s.Warmup = append(g.s.Warmup, mk(i))
	}
	g.mix.cur = nil // the measured ops start on a fresh deck
	for i := 0; i < measured; i++ {
		g.s.Ops = append(g.s.Ops, mk(warm+i))
	}
}

// --- analyst-scan ---

const scanPolicyV1 = `policy "scan-v1" {
  attr provider {
    tuple purpose=research visibility=third-party granularity=specific retention=indefinite
  }
  attr weight {
    tuple purpose=research visibility=third-party granularity=specific retention=indefinite
  }
  attr condition {
    tuple purpose=research visibility=third-party granularity=specific retention=indefinite
  }
  sensitivity weight 4
  sensitivity condition 5
}
`

// scanPrefs: every provider discloses its key; violating providers cap
// weight visibility below the requester class, which suppresses their row.
func (g *gen) scanPrefs(name string, violating bool) *privacy.Prefs {
	p := privacy.NewPrefs(name, g.threshold())
	p.Add("provider", privacy.Tuple{Purpose: queryPurpose, Visibility: 4, Granularity: 3, Retention: 5})
	v := privacy.Level(4)
	if violating {
		v = 1
	}
	p.Add("weight", privacy.Tuple{Purpose: queryPurpose, Visibility: v, Granularity: 3, Retention: 5})
	p.Add("condition", privacy.Tuple{Purpose: queryPurpose, Visibility: g.level(3, 4), Granularity: 3, Retention: 5})
	return p
}

// scan: 45% selective full scans (~1% of rows returned), 45% point queries
// on the indexed provider key, 10% preference updates that flip a provider
// between clean and violating, from 1 client.
func (g *gen) scan(seconds int) {
	s := g.s
	s.Clients = 1
	s.Corpus = scanPolicyV1
	s.Cols = "weight,condition"
	s.Population = make([]*privacy.Prefs, scanProviders)
	violating := make([]bool, scanProviders)
	var csv strings.Builder
	csv.WriteString("provider,weight,condition\n")
	for i := range s.Population {
		name := fmt.Sprintf("a%06d", i)
		violating[i] = g.rng.Bern(0.2)
		s.Population[i] = g.scanPrefs(name, violating[i])
		fmt.Fprintf(&csv, "%s,%.2f,%d\n", name, g.rng.Range(0, 1000), g.rng.Intn(20))
	}
	s.RowsCSV = []byte(csv.String())
	s.Rows = scanProviders
	queries := 0
	g.mix = newDeck(g.rng, map[opKind]int{opScan: 9, opPoint: 9, opIngest: 2})
	mk := func(id int) op {
		switch kind := g.mix.next(); kind {
		case opScan, opPoint:
			var sql string
			if kind == opScan {
				lo := g.rng.Intn(990)
				sql = fmt.Sprintf("SELECT provider, weight, condition FROM records WHERE weight >= %d AND weight < %d", lo, lo+10)
			} else {
				sql = fmt.Sprintf("SELECT weight, condition FROM records WHERE provider = 'a%06d'", g.rng.Intn(scanProviders))
			}
			queries++
			body, err := json.Marshal(map[string]any{
				"requester": "analyst", "purpose": queryPurpose, "visibility": queryVisibility, "sql": sql,
			})
			if err != nil {
				g.err = err
			}
			return op{ID: id, Kind: kind, Method: "POST", Path: "/v1/query", Body: body, SQL: sql,
				Check: queries%scanCheckEvery == 0}
		default:
			i := g.rng.Intn(scanProviders)
			violating[i] = !violating[i]
			p := g.scanPrefs(fmt.Sprintf("a%06d", i), violating[i])
			return op{ID: id, Kind: opIngest, Method: "POST", Path: "/v1/providers", Body: ingestBody(p),
				Provider: p.Provider, Prefs: p}
		}
	}
	measured := max(scanOpsPerSec*seconds, minClassSamples*10)
	g.fill(warmupOps(measured), measured, mk)
}

// --- policy-officer ---

// The rare attribute's tuple grants nothing (all levels zero), so a diff
// that only re-weighs Σ^rare leaves the conflicts of a preference-less
// provider unchanged: the engine can prove the 90% who never mention rare
// unaffected and reuse their memoized reports (no global fallback).
const officerPolicyV1 = `policy "officer-v1" {
  attr common {
    tuple purpose=service visibility=house granularity=partial retention=week
  }
  attr rare {
    tuple purpose=service visibility=none granularity=none retention=none
  }
  sensitivity common 2
  sensitivity rare 6
}
`

const officerPolicyV2 = `policy "officer-v2" {
  attr common {
    tuple purpose=service visibility=third-party granularity=partial retention=month
  }
  attr rare {
    tuple purpose=service visibility=none granularity=none retention=none
  }
  sensitivity common 2
  sensitivity rare 6
}
`

// officerRareEvery: every 11th provider (9.1%) states the rare attribute,
// and an upsert never changes whether a provider does, so a narrow diff
// always leaves more than 90% of the population reusable.
const officerRareEvery = 11

func (g *gen) officerPrefs(name string, rare bool) *privacy.Prefs {
	p := privacy.NewPrefs(name, g.threshold())
	p.Add("common", privacy.Tuple{Purpose: "service", Visibility: g.level(1, 3), Granularity: g.level(1, 3), Retention: g.level(1, 4)})
	if rare {
		p.Add("rare", privacy.Tuple{Purpose: "service", Visibility: g.level(0, 2), Granularity: g.level(0, 2), Retention: g.level(0, 3)})
	}
	return p
}

// officerCycle is the fixed op order of one policy-officer cycle: 4 narrow
// what-ifs, 1 full what-if, 1 full certify, 1 policy swap, 2 summaries and
// 1 single upsert.
var officerCycle = []opKind{
	opWhatIfNarrow, opSummary, opWhatIfNarrow, opWhatIfFull, opIngest,
	opWhatIfNarrow, opCertify, opWhatIfNarrow, opSwap, opSummary,
}

func (g *gen) officer(seconds int) {
	s := g.s
	s.Clients = 1
	s.Corpus = officerPolicyV1
	s.PolicyV2 = officerPolicyV2
	s.Population = make([]*privacy.Prefs, officerProviders)
	for i := range s.Population {
		s.Population[i] = g.officerPrefs(fmt.Sprintf("o%05d", i), i%officerRareEvery == 0)
	}
	swaps := 0
	mk := func(id int, kind opKind) op {
		o := op{ID: id, Kind: kind, Method: "GET"}
		switch kind {
		case opWhatIfNarrow, opWhatIfFull:
			req := &whatif.Request{U: 10, T: float64(g.rng.Intn(5))}
			if kind == opWhatIfNarrow {
				req.Diff.Sensitivity = []whatif.SensitivityChange{{Attribute: "rare", Value: float64(7 + g.rng.Intn(4))}}
			} else {
				req.Diff.Retarget = []whatif.TupleSpec{{Attribute: "common", Purpose: "service",
					Visibility: 3 + g.rng.Intn(2), Granularity: 2 + g.rng.Intn(2), Retention: 3 + g.rng.Intn(3)}}
			}
			body, err := json.Marshal(req)
			if err != nil {
				g.err = err
			}
			o.Method, o.Path, o.Body, o.WhatIf, o.Check = "POST", "/v1/whatif", body, req, true
		case opCertify:
			o.Path = "/v1/certify?alpha=0.1"
		case opSummary:
			o.Path = "/v1/certify/summary?alpha=0.1"
		case opSwap:
			swaps++
			o.Method, o.Path, o.Body = "PUT", "/v1/policy", []byte(s.Corpus)
			if swaps%2 == 1 {
				o.Body = []byte(s.PolicyV2)
			}
		case opIngest:
			i := g.rng.Intn(officerProviders)
			p := g.officerPrefs(fmt.Sprintf("o%05d", i), i%officerRareEvery == 0)
			o.Method, o.Path, o.Body, o.Provider, o.Prefs = "POST", "/v1/providers", ingestBody(p), p.Provider, p
		default:
			g.err = fmt.Errorf("policy-officer has no %s ops", kind)
		}
		return o
	}
	cycles := max(officerCyclesPerS*seconds, minClassSamples)
	warmCycles := warmupOps(cycles)
	id := 0
	for c := 0; c < warmCycles+cycles; c++ {
		for _, k := range officerCycle {
			o := mk(id, k)
			id++
			if c < warmCycles {
				g.s.Warmup = append(g.s.Warmup, o)
			} else {
				g.s.Ops = append(g.s.Ops, o)
			}
		}
	}
}

// digest hashes every byte the server will receive, in order: the corpus,
// the bulk loads and every op. Equal digests mean identical runs.
func (s *schedule) digest() string {
	h := sha256.New()
	write := func(parts ...string) {
		for _, p := range parts {
			fmt.Fprintf(h, "%d:%s", len(p), p)
		}
	}
	write(s.Workload, s.Corpus, s.PolicyV2, s.Cols, string(s.RowsCSV))
	for _, b := range s.Batches {
		write(string(b))
	}
	for _, list := range [][]op{s.Warmup, s.Ops} {
		for _, o := range list {
			write(fmt.Sprint(o.ID, o.Kind, o.Client, o.Check), o.Method, o.Path, string(o.Body))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// counts returns the number of measured ops per class.
func (s *schedule) counts() [numOpKinds]int {
	var n [numOpKinds]int
	for _, o := range s.Ops {
		n[o.Kind]++
	}
	return n
}
