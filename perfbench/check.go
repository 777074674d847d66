package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"capnn/internal/cloud"
	"capnn/internal/serve"
	"capnn/internal/tensor"
)

// checkAnswer verifies one OK answer is well formed: one logit per
// class, Class their argmax, and a batch size the server could form.
func checkAnswer(resp *serve.WireResponse, classes, maxBatch int) error {
	if resp.Code != cloud.CodeOK {
		return nil
	}
	if len(resp.Logits) != classes {
		return fmt.Errorf("%d logits, want %d", len(resp.Logits), classes)
	}
	if want := tensor.Argmax(resp.Logits); resp.Class != want {
		return fmt.Errorf("class %d is not the argmax %d of its logits", resp.Class, want)
	}
	if resp.Batch < 1 || resp.Batch > maxBatch {
		return fmt.Errorf("batch %d outside [1,%d]", resp.Batch, maxBatch)
	}
	return nil
}

// sameBits reports whether a and b are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkReference verifies a served answer against references computed
// on an independent System: pruned is Network.Infer under the
// reference's own personalization, unpruned is Network.Forward. A
// fallback answer must equal unpruned. Any other answer must equal
// pruned, or unpruned when it was one of the guard's shadow samples
// (the wire does not mark those), which Infer ≡ Forward ≡ Compiled
// makes bit-exact either way.
func checkReference(logits []float64, fallback bool, pruned, unpruned []float64) error {
	switch {
	case fallback && !sameBits(logits, unpruned):
		return fmt.Errorf("fallback answer differs from the unpruned forward")
	case !fallback && !sameBits(logits, pruned) && !sameBits(logits, unpruned):
		return fmt.Errorf("answer matches neither the reference personalization nor the unpruned forward")
	}
	return nil
}

// traceDigest is an FNV-64a hash of the sent (user, key, class) stream
// plus the stream's shape, so two runs with one seed can be compared.
type traceDigest struct {
	Events  int     `json:"events"`
	Users   int     `json:"distinct_users"`
	Keys    int     `json:"distinct_keys"`
	Drifted float64 `json:"drift_share"`
	Hash    string  `json:"fnv64a"`
}

func digest(events []event) traceDigest {
	h := fnv.New64a()
	users, keys := map[uint64]bool{}, map[string]bool{}
	drifted := 0
	var buf [8]byte
	for _, e := range events {
		binary.LittleEndian.PutUint64(buf[:], e.ev.User)
		h.Write(buf[:])
		h.Write([]byte(e.key))
		binary.LittleEndian.PutUint64(buf[:], uint64(e.ev.Class))
		h.Write(buf[:])
		users[e.ev.User] = true
		keys[e.key] = true
		if e.ev.Drifted {
			drifted++
		}
	}
	return traceDigest{Events: len(events), Users: len(users), Keys: len(keys),
		Drifted: ratio(float64(drifted), float64(len(events))), Hash: fmt.Sprintf("%016x", h.Sum64())}
}
