package serve

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/store"
)

// TestHandoffExportImportRoundTrip: a warm cache exported from one
// server and imported into a fresh one serves the same requests with
// zero personalizations — identical logits, all hits — and resident
// entries win over a re-import.
func TestHandoffExportImportRoundTrip(t *testing.T) {
	f := getFixture(t)
	src := NewServerWith(f.sys, Config{Variant: core.VariantM, MaxBatch: 4, MaxWait: time.Millisecond})
	defer src.Close()

	prefs := []core.Preferences{
		core.Uniform([]int{0, 1}),
		core.Uniform([]int{1, 3}),
		mustWeighted(t, []int{0, 2, 3}, []float64{0.5, 0.25, 0.25}),
	}
	want := make([][]float64, len(prefs))
	for i, p := range prefs {
		res, err := src.Infer(p, f.sample(t, i))
		if err != nil {
			t.Fatalf("warm %d: %v", i, err)
		}
		want[i] = res.Logits
	}

	cms := src.ExportMasks()
	if len(cms) != len(prefs) {
		t.Fatalf("exported %d entries, want %d", len(cms), len(prefs))
	}
	if st := src.Stats(); st.HandoffExported != uint64(len(prefs)) {
		t.Fatalf("HandoffExported = %d, want %d", st.HandoffExported, len(prefs))
	}

	dst := NewServerWith(f.sys, Config{Variant: core.VariantM, MaxBatch: 4, MaxWait: time.Millisecond})
	defer dst.Close()
	n, err := dst.ImportMasks(cms)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(prefs) {
		t.Fatalf("imported %d entries, want %d", n, len(prefs))
	}
	for i, p := range prefs {
		res, err := dst.Infer(p, f.sample(t, i))
		if err != nil {
			t.Fatalf("imported serve %d: %v", i, err)
		}
		for j, l := range res.Logits {
			if math.Abs(l-want[i][j]) > 1e-12 {
				t.Fatalf("prefs %d logit %d: imported %v, source %v", i, j, l, want[i][j])
			}
		}
	}
	st := dst.Stats()
	if st.CacheMisses != 0 || st.PersonalizeRuns != 0 {
		t.Fatalf("imported cache: misses=%d personalize-runs=%d, want 0/0 (handoff should pre-warm)",
			st.CacheMisses, st.PersonalizeRuns)
	}
	if st.CacheHits != uint64(len(prefs)) {
		t.Fatalf("imported cache: hits=%d, want %d", st.CacheHits, len(prefs))
	}
	if st.HandoffImported != uint64(len(prefs)) {
		t.Fatalf("HandoffImported = %d, want %d", st.HandoffImported, len(prefs))
	}

	// Re-import: every key is resident, nothing installs — the local
	// (possibly healed) entry outranks the mover's copy.
	n, err = dst.ImportMasks(cms)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("re-import installed %d entries, want 0 (resident entries win)", n)
	}
}

func mustWeighted(t *testing.T, classes []int, weights []float64) core.Preferences {
	t.Helper()
	p, err := core.Weighted(classes, weights)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Masks arriving from outside the process — a handoff payload or a
// checkpoint — must match the network's unit layers. A short or
// over-long mask would fail the compile and then panic every masked
// request for its key; instead it is refused before it reaches the
// cache: ImportMasks (and the wire op) answer CodeBadRequest and
// RestoreState errors, and the key personalizes normally afterwards.
func TestMalformedMasksRefused(t *testing.T) {
	f := getFixture(t)
	units := f.sys.Net.Stages()[0].Unit.Units()
	prefs := core.Uniform([]int{0, 1})
	key := string(core.VariantW) + "/" + prefs.Key()
	malformed := func(n int) []CachedMask {
		return []CachedMask{{Key: key, Variant: string(core.VariantW), Classes: prefs.Classes,
			Weights: prefs.Weights, Masks: map[int][]bool{0: make([]bool, n)}}}
	}
	requireBadRequest := func(t *testing.T, err error) {
		t.Helper()
		var se *Error
		if !errors.As(err, &se) || se.Code != cloud.CodeBadRequest {
			t.Fatalf("error %v, want a CodeBadRequest *Error", err)
		}
	}
	paths := []struct {
		name   string
		refuse func(t *testing.T, srv *Server, cms []CachedMask)
	}{
		{"import", func(t *testing.T, srv *Server, cms []CachedMask) {
			n, err := srv.ImportMasks(cms)
			requireBadRequest(t, err)
			if n != 0 {
				t.Fatalf("imported %d entries, want 0", n)
			}
		}},
		{"wire-import", func(t *testing.T, srv *Server, cms []CachedMask) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(cms); err != nil {
				t.Fatal(err)
			}
			if resp := srv.handleCacheImport(WireRequest{Payload: buf.Bytes()}); resp.Code != cloud.CodeBadRequest {
				t.Fatalf("wire import code %s (%s), want bad-request", resp.Code, resp.Err)
			}
		}},
		{"restore", func(t *testing.T, srv *Server, cms []CachedMask) {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			txn, err := st.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := txn.PutGob(store.ArtifactMaskCache, cms); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
			gen, err := st.Latest()
			if err != nil {
				t.Fatal(err)
			}
			n, err := srv.RestoreState(gen)
			requireBadRequest(t, err)
			if n != 0 {
				t.Fatalf("restored %d entries, want 0", n)
			}
		}},
	}
	masks := []struct {
		name string
		n    int
	}{{"short", units - 1}, {"over-long", units + 1}}
	for _, p := range paths {
		for _, m := range masks {
			t.Run(p.name+"/"+m.name, func(t *testing.T) {
				srv := NewServerWith(f.sys, compiledConfig())
				defer srv.Close()
				p.refuse(t, srv, malformed(m.n))
				if st := srv.Stats(); st.CacheEntries != 0 || st.Compiles != 0 {
					t.Fatalf("refused entry reached the cache: entries=%d compiles=%d", st.CacheEntries, st.Compiles)
				}
				if res, err := srv.InferVariant(core.VariantW, prefs, f.sample(t, 0)); err != nil || res.CacheHit {
					t.Fatalf("key after refusal: hit=%v err=%v, want a fresh personalization", res.CacheHit, err)
				}
			})
		}
	}
}
