package capnn

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"testing"

	"capnn/internal/core"
	"capnn/internal/exp"
	"capnn/internal/serve"
)

// The paper's actual output is the personalized prune masks. This test
// pins them: FNV-64a hashes of System.Prune's masks on the cifar10
// fixture for every variant under two fixed preference sets, and the
// same hashes for the masks a serve.Server caches for the same keys.
// Any change to the pruning algorithms, the suffix evaluator or the
// kernels they replay through that moves a single mask bit fails here;
// such a change must be deliberate and re-pin the table.

// goldenMaskHash folds masks into FNV-64a in stage order: the stage
// index, then one byte per unit (1 = pruned).
func goldenMaskHash(masks map[int][]bool) uint64 {
	stages := make([]int, 0, len(masks))
	for i := range masks {
		stages = append(stages, i)
	}
	sort.Ints(stages)
	h := fnv.New64a()
	for _, i := range stages {
		fmt.Fprintf(h, "%d:", i)
		for _, p := range masks[i] {
			if p {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		h.Write([]byte{';'})
	}
	return h.Sum64()
}

func TestGoldenPersonalizedMasks(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may fuse multiply-adds on other architectures, which can
		// move a threshold decision; the table is pinned on amd64.
		t.Skipf("golden masks are pinned on amd64, running on %s", runtime.GOARCH)
	}
	fx, err := exp.Load(exp.CIFAR10Config(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.EnsureB(nil); err != nil {
		t.Fatal(err)
	}
	weighted, err := core.Weighted([]int{0, 2, 5, 9}, []float64{0.4, 0.3, 0.2, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	uniform := core.Uniform([]int{3, 7})
	golden := []struct {
		v     core.Variant
		prefs core.Preferences
		hash  uint64
	}{
		{core.VariantB, uniform, 0xb7fd64957cfa60aa},
		{core.VariantB, weighted, 0xc5054b0cfddca5cc},
		{core.VariantW, uniform, 0x372f679d18fbd21b},
		{core.VariantW, weighted, 0x13f7c09aa916d5a8},
		{core.VariantM, uniform, 0xc36d5aee7f50d786},
		{core.VariantM, weighted, 0x1abf7457afa675bb},
	}

	srv := serve.NewServerWith(fx.Sys, serve.Config{DisableGuard: true})
	defer srv.Close()
	x, _ := fx.Sets.Test.Batch([]int{0})
	sample := x.MustReshape(x.Shape()[1:]...)

	want := map[string]uint64{} // serve cache key → pinned hash
	for _, g := range golden {
		id := fmt.Sprintf("%s %v", g.v, g.prefs.Classes)
		masks, err := fx.Sys.Prune(g.v, g.prefs)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := goldenMaskHash(masks); got != g.hash {
			t.Errorf("%s: Prune mask hash %#x, want %#x", id, got, g.hash)
		}
		if _, err := srv.InferVariant(g.v, g.prefs, sample); err != nil {
			t.Fatalf("%s: serve: %v", id, err)
		}
		want[string(g.v)+"/"+g.prefs.Key()] = g.hash
	}
	cached := srv.ExportMasks()
	if len(cached) != len(want) {
		t.Fatalf("server caches %d entries, want %d", len(cached), len(want))
	}
	for _, cm := range cached {
		if got := goldenMaskHash(cm.Masks); got != want[cm.Key] {
			t.Errorf("served %s: cached mask hash %#x, want %#x", cm.Key, got, want[cm.Key])
		}
	}
}
