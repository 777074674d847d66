package serve

import (
	"math"
	"testing"
	"time"

	"capnn/internal/core"
	"capnn/internal/store"
	"capnn/internal/tensor"
)

// Every entry is compiled before it enters the cache, so whichever path
// built it — fresh fill, heal, checkpoint restore, handoff import — the
// very next request for its key must dispatch on the compiled network,
// with no wait in between, and return exactly the bytes masked inference
// returns under the entry's masks.

// compiledConfig is the plain single-path config these tests share.
func compiledConfig() Config {
	return Config{Variant: core.VariantW, MaxBatch: 2, MaxWait: time.Millisecond, DisableGuard: true}
}

// residentEntry returns the resident cache entry for key, failing when absent.
func residentEntry(t *testing.T, srv *Server, key string) *maskEntry {
	t.Helper()
	for _, e := range srv.cache.snapshot() {
		if e.key == key {
			return e
		}
	}
	t.Fatalf("no resident entry for %q", key)
	return nil
}

// requireCompiledNext serves one request and asserts it went out on the
// entry's compiled network (one more compiled dispatch, no masked
// fallback ever) and bit-matches the masked forward under the entry's
// masks. It returns the answer.
func requireCompiledNext(t *testing.T, f *fixture, srv *Server, prefs core.Preferences, x *tensor.Tensor) Result {
	t.Helper()
	before := srv.Stats()
	res, err := srv.InferVariant(core.VariantW, prefs, x)
	if err != nil {
		t.Fatal(err)
	}
	after := srv.Stats()
	if after.CompiledDispatched != before.CompiledDispatched+1 || after.MaskedFallback != 0 {
		t.Fatalf("compiled dispatches %d -> %d, masked fallback %d; want +1 and 0",
			before.CompiledDispatched, after.CompiledDispatched, after.MaskedFallback)
	}
	e := residentEntry(t, srv, string(core.VariantW)+"/"+prefs.Key())
	if e.compiled == nil || e.compileErr != nil {
		t.Fatalf("entry compiled=%v err=%v, want a compiled network", e.compiled != nil, e.compileErr)
	}
	want := f.sys.Net.Infer(x.MustReshape(append([]int{1}, x.Shape()...)...), e.masks)
	for i, v := range want.Data() {
		if math.Float64bits(v) != math.Float64bits(res.Logits[i]) {
			t.Fatalf("compiled logit %d = %v, masked reference %v", i, res.Logits[i], v)
		}
	}
	return res
}

// checkpoint commits srv's state to a fresh store and returns it.
func checkpoint(t *testing.T, srv *Server) *store.Generation {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	txn, err := st.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SaveState(txn); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	gen, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// Fresh fill: the personalizing request itself is already served on the
// compiled network.
func TestCompiledDispatchBitIdentical(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, compiledConfig())
	defer srv.Close()

	prefs := core.Uniform([]int{0, 1})
	first := requireCompiledNext(t, f, srv, prefs, f.sample(t, 0))
	if first.CacheHit {
		t.Fatal("first request was a cache hit")
	}
	requireCompiledNext(t, f, srv, prefs, f.sample(t, 1))
	st := srv.Stats()
	if st.Compiles != 1 || st.CompileErrors != 0 {
		t.Fatalf("compiles=%d errors=%d, want 1 and 0", st.Compiles, st.CompileErrors)
	}
	if st.CompiledBytes <= 0 || st.CompiledEntries != 1 {
		t.Fatalf("compiled resident bytes=%d entries=%d, want >0 and 1", st.CompiledBytes, st.CompiledEntries)
	}
}

// Checkpoint restore: compiled networks are never serialized, so restore
// recompiles each entry before installing it — the restarted server's
// first request dispatches compiled and matches the pre-restart answer.
func TestRestoreStateRecompiles(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, compiledConfig())
	defer srv.Close()
	prefs := core.Uniform([]int{2, 3})
	x := f.sample(t, 2)
	want, err := srv.InferVariant(core.VariantW, prefs, x)
	if err != nil {
		t.Fatal(err)
	}

	srv2 := NewServerWith(f.sys, compiledConfig())
	defer srv2.Close()
	if _, err := srv2.RestoreState(checkpoint(t, srv)); err != nil {
		t.Fatal(err)
	}
	if snap := srv2.Stats(); snap.CompiledEntries != 1 || snap.CompiledBytes <= 0 {
		t.Fatalf("restore did not compile: entries=%d bytes=%d", snap.CompiledEntries, snap.CompiledBytes)
	}
	got := requireCompiledNext(t, f, srv2, prefs, x)
	if !got.CacheHit {
		t.Fatal("restored entry missed the cache")
	}
	for i := range want.Logits {
		if math.Float64bits(want.Logits[i]) != math.Float64bits(got.Logits[i]) {
			t.Fatalf("restored compiled logit %d differs from original", i)
		}
	}
}

// Handoff import: an imported entry is compiled before it is installed.
func TestImportMasksServesCompiled(t *testing.T) {
	f := getFixture(t)
	src := NewServerWith(f.sys, compiledConfig())
	defer src.Close()
	prefs := core.Uniform([]int{1, 3})
	if _, err := src.InferVariant(core.VariantW, prefs, f.sample(t, 0)); err != nil {
		t.Fatal(err)
	}

	dst := NewServerWith(f.sys, compiledConfig())
	defer dst.Close()
	if n, err := dst.ImportMasks(src.ExportMasks()); err != nil || n != 1 {
		t.Fatalf("import: n=%d err=%v, want 1 entry", n, err)
	}
	if res := requireCompiledNext(t, f, dst, prefs, f.sample(t, 1)); !res.CacheHit {
		t.Fatal("imported entry missed the cache")
	}
}

// Heal: the repersonalized entry published under the original key is
// compiled before the publish, so the first request after the heal runs
// on its compiled network. Drift traffic before it is served compiled or
// through the unpruned guard path, never by masked fallback.
func TestHealServesCompiled(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, guardConfig())
	defer srv.Close()
	healed := make(chan struct{}, 1)
	srv.hookHealed = func(string, core.Preferences) {
		select {
		case healed <- struct{}{}:
		default:
		}
	}

	prefs := core.Uniform([]int{0, 1})
	key := string(core.VariantW) + "/" + prefs.Key()
	next := driftSampler(t, f, 2, 3)
	requireCompiledNext(t, f, srv, prefs, next(0))
	before := residentEntry(t, srv, key)
	done := false
	for i := 1; i < 200 && !done; i++ {
		if _, err := srv.Infer(prefs, next(i)); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		select {
		case <-healed:
			done = true
		default:
		}
	}
	if !done {
		select {
		case <-healed:
		case <-time.After(5 * time.Second):
			t.Fatalf("no heal published; stats: %s", srv.Stats())
		}
	}
	if residentEntry(t, srv, key) == before {
		t.Fatal("heal did not replace the entry")
	}
	requireCompiledNext(t, f, srv, prefs, next(0))
}

// A mask set that empties a whole conv cannot be compacted, but masked
// inference serves it correctly: the entry records exactly one compile
// error and one event, serves masked bit-identically, and is never
// recompiled on later hits.
func TestCompileFailureServesMasked(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, compiledConfig())
	defer srv.Close()

	prefs := core.Uniform([]int{0, 1})
	stage0 := f.sys.Net.Stages()[0].Unit.Units()
	masks := map[int][]bool{0: make([]bool, stage0)}
	for i := range masks[0] {
		masks[0][i] = true
	}
	key := string(core.VariantW) + "/" + prefs.Key()
	n, err := srv.ImportMasks([]CachedMask{{Key: key, Variant: string(core.VariantW),
		Classes: prefs.Classes, Weights: prefs.Weights, Masks: masks}})
	if err != nil || n != 1 {
		t.Fatalf("import: n=%d err=%v", n, err)
	}

	const hits = 3
	for i := 0; i < hits; i++ {
		x := f.sample(t, i)
		res, err := srv.InferVariant(core.VariantW, prefs, x)
		if err != nil {
			t.Fatalf("hit %d: %v", i, err)
		}
		want := f.sys.Net.Infer(x.MustReshape(append([]int{1}, x.Shape()...)...), masks)
		for j, v := range want.Data() {
			if math.Float64bits(v) != math.Float64bits(res.Logits[j]) {
				t.Fatalf("hit %d logit %d = %v, masked reference %v", i, j, res.Logits[j], v)
			}
		}
	}
	st := srv.Stats()
	if st.Compiles != 1 || st.CompileErrors != 1 {
		t.Fatalf("compiles=%d errors=%d, want 1 and 1 (no recompiles on hits)", st.Compiles, st.CompileErrors)
	}
	if st.MaskedFallback != hits || st.CompiledDispatched != 0 {
		t.Fatalf("masked=%d compiled=%d, want %d and 0", st.MaskedFallback, st.CompiledDispatched, hits)
	}
	if st.CompiledEntries != 0 || st.CompiledBytes != 0 {
		t.Fatalf("resident compiled entries=%d bytes=%d, want 0/0", st.CompiledEntries, st.CompiledBytes)
	}
	events := 0
	for _, ev := range srv.Events().Snapshot(0) {
		if ev.Type == "compile-failed" {
			events++
			if ev.Source != key {
				t.Fatalf("compile-failed event source %q, want %q", ev.Source, key)
			}
		}
	}
	if events != 1 {
		t.Fatalf("%d compile-failed events, want 1", events)
	}
}

// The compiled-byte budget bounds the one LRU: with a 1-byte budget the
// cache keeps exactly the most recent entry (never the one just inserted
// is evicted), counting the displaced one as a cache eviction.
func TestCompiledBudgetKeepsNewestEntry(t *testing.T) {
	f := getFixture(t)
	cfg := compiledConfig()
	cfg.CompiledBudgetBytes = 1
	srv := NewServerWith(f.sys, cfg)
	defer srv.Close()

	first, second := core.Uniform([]int{0, 2}), core.Uniform([]int{1, 3})
	requireCompiledNext(t, f, srv, first, f.sample(t, 0))
	requireCompiledNext(t, f, srv, second, f.sample(t, 1))

	st := srv.Stats()
	if st.CacheEntries != 1 || st.CacheEvictions != 1 {
		t.Fatalf("cache entries=%d evictions=%d, want 1 and 1", st.CacheEntries, st.CacheEvictions)
	}
	e := residentEntry(t, srv, string(core.VariantW)+"/"+second.Key())
	if st.CompiledEntries != 1 || st.CompiledBytes != e.compiled.Bytes() {
		t.Fatalf("compiled entries=%d bytes=%d, want 1 and %d", st.CompiledEntries, st.CompiledBytes, e.compiled.Bytes())
	}
	// The evicted key refills (and displaces the other) on its next request.
	if res := requireCompiledNext(t, f, srv, first, f.sample(t, 2)); res.CacheHit {
		t.Fatal("evicted entry still hit the cache")
	}
	if got := srv.Stats(); got.CacheEntries != 1 || got.CacheEvictions != 2 {
		t.Fatalf("after refill: entries=%d evictions=%d, want 1 and 2", got.CacheEntries, got.CacheEvictions)
	}
}
