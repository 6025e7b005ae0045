package ppdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/privacy"
)

// TestColumnarKernelMatchesReferenceAcrossShards is the randomized-
// population property test for the columnar certify core (DESIGN.md §13):
// after a full mutation history (bulk build, point registrations,
// self-service edits, removals, a policy swap that recompiles every shard)
// the compiled tuple columns must still agree with the row-oriented
// reference — per provider (identical ProviderReports: conf, dimensions,
// defaults), per certification (byte-identical to a serial AssessProvider
// recompute), and per snapshot (byte-identical artifacts) — at 1, 2 and 8
// shards.
func TestColumnarKernelMatchesReferenceAcrossShards(t *testing.T) {
	readDir := func(t *testing.T, dir string) map[string][]byte {
		t.Helper()
		files := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = b
		}
		return files
	}

	for _, seed := range []uint64{3, 77} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			var baseCert []byte
			var baseSnap map[string][]byte
			for _, shards := range shardSweepCounts {
				db := buildShardedDB(t, seed, shards)

				// (a) Row equivalence: every stored provider must carry
				// current compiled columns, and the kernel's report for them must equal the reference
				// walk field-for-field.
				db.mu.RLock()
				assessor := db.assessor
				snaps := db.snapshotShardsShared()
				db.mu.RUnlock()
				var sc core.Scratch
				checked := 0
				for _, sn := range snaps {
					for j, st := range sn.states {
						if !st.compiled.CurrentFor(assessor) {
							t.Fatalf("shards=%d: provider %s has stale or missing compiled columns", shards, sn.keys[j])
						}
						want := assessor.AssessProvider(st.prefs)
						got := assessor.AssessCompiled(st.compiled, &sc)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("shards=%d: kernel report for %s differs\n got: %+v\nwant: %+v",
								shards, sn.keys[j], got, want)
						}
						checked++
					}
				}
				if checked == 0 {
					t.Fatal("mutation history left an empty population")
				}

				// (b) Certification equivalence: the columnar CertifyFull
				// must be byte-identical to the serial reference oracle
				// (AssessProvider over the sorted population), and the
				// incremental ledger path must match the full recompute.
				ref := assessor.AssessPopulation(db.Providers())
				cert, err := db.CertifyFull(0.25)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mustJSON(t, cert.Report), mustJSON(t, ref)) {
					t.Errorf("shards=%d: columnar certification diverges from the serial reference", shards)
				}
				requireCertEquiv(t, db, 0.25, fmt.Sprintf("columnar shards=%d", shards))

				// (c) Shard-count independence: certification bytes and
				// every snapshot artifact identical at 1, 2 and 8 shards.
				out := mustJSON(t, cert)
				dir := filepath.Join(t.TempDir(), "snap")
				if err := db.Save(dir); err != nil {
					t.Fatalf("shards=%d: Save: %v", shards, err)
				}
				files := readDir(t, dir)
				if baseCert == nil {
					baseCert, baseSnap = out, files
					continue
				}
				if !bytes.Equal(out, baseCert) {
					t.Errorf("shards=%d: certification bytes differ from shards=%d", shards, shardSweepCounts[0])
				}
				if len(files) != len(baseSnap) {
					t.Errorf("shards=%d: %d snapshot artifacts, want %d", shards, len(files), len(baseSnap))
				}
				for name, want := range baseSnap {
					if got, ok := files[name]; !ok || !bytes.Equal(got, want) {
						t.Errorf("shards=%d: snapshot artifact %s differs from shards=%d", shards, name, shardSweepCounts[0])
					}
				}
			}
		})
	}
}

// TestWidePolicyCertifyAcrossShards runs certification under policies with
// 70 tuples on one attribute, whose cover masks span two words: every
// stored provider must carry current compiled columns, Certify must be
// byte-identical to CertifyFull and CertifyFull to the serial reference,
// and the bytes must not depend on the shard count — before and after a
// swap to another wide policy.
func TestWidePolicyCertifyAcrossShards(t *testing.T) {
	const width = 70
	purpose := func(k int) privacy.Purpose { return privacy.Purpose(fmt.Sprintf("pu%02d", k)) }
	widePolicy := func(name string, shift int) *privacy.HousePolicy {
		hp := privacy.NewHousePolicy(name)
		hp.Add("weight", privacy.Tuple{Purpose: purpose(0), Visibility: 2, Granularity: 2, Retention: 2})
		for k := 0; k < width; k++ {
			hp.Add("wide", privacy.Tuple{
				Purpose:     purpose(k),
				Visibility:  privacy.Level((k + shift) % 5),
				Granularity: privacy.Level((k + shift) % 4),
				Retention:   privacy.Level((k + shift) % 6),
			})
		}
		return hp
	}
	rng := rand.New(rand.NewSource(width))
	pop := make([]*privacy.Prefs, 150)
	for i := range pop {
		p := privacy.NewPrefs(fmt.Sprintf("w%03d", i), rng.Float64()*6)
		for n := rng.Intn(5); n > 0; n-- {
			k := []int{rng.Intn(width), 63, 64, width - 1}[rng.Intn(4)]
			p.Add("wide", privacy.Tuple{
				Purpose:     purpose(k),
				Visibility:  privacy.Level(rng.Intn(5)),
				Granularity: privacy.Level(rng.Intn(4)),
				Retention:   privacy.Level(rng.Intn(6)),
			})
		}
		if rng.Intn(2) == 0 {
			p.Add("weight", privacy.Tuple{Purpose: purpose(0), Visibility: privacy.Level(rng.Intn(5))})
		}
		pop[i] = p
	}

	var base [][]byte
	for _, shards := range shardSweepCounts {
		db, err := New(Config{Policy: widePolicy("wide-v1", 0), Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.RegisterProviders(pop[:100]); err != nil {
			t.Fatal(err)
		}
		for _, p := range pop[100:] {
			if err := db.RegisterProvider(p); err != nil {
				t.Fatal(err)
			}
		}
		var certs [][]byte
		for stage, next := range []*privacy.HousePolicy{nil, widePolicy("wide-v2", 1)} {
			if next != nil {
				if _, err := db.SetPolicy(next); err != nil {
					t.Fatal(err)
				}
			}
			db.mu.RLock()
			assessor := db.assessor
			snaps := db.snapshotShardsShared()
			db.mu.RUnlock()
			for _, sn := range snaps {
				for j, st := range sn.states {
					if !st.compiled.CurrentFor(assessor) {
						t.Fatalf("shards=%d stage=%d: provider %s has stale or missing compiled columns", shards, stage, sn.keys[j])
					}
				}
			}
			label := fmt.Sprintf("wide shards=%d stage=%d", shards, stage)
			requireCertEquiv(t, db, 0.25, label)
			full, err := db.CertifyFull(0.25)
			if err != nil {
				t.Fatal(err)
			}
			if ref := assessor.AssessPopulation(db.Providers()); !bytes.Equal(mustJSON(t, full.Report), mustJSON(t, ref)) {
				t.Errorf("%s: columnar certification diverges from the serial reference", label)
			}
			if full.Report.ViolatedCount == 0 {
				t.Fatalf("%s: no provider is violated; the comparison is vacuous", label)
			}
			certs = append(certs, mustJSON(t, full))
		}
		if base == nil {
			base = certs
			continue
		}
		for stage := range certs {
			if !bytes.Equal(certs[stage], base[stage]) {
				t.Errorf("shards=%d stage=%d: certification bytes differ from shards=%d", shards, stage, shardSweepCounts[0])
			}
		}
	}
}
