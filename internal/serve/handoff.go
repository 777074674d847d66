package serve

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"capnn/internal/cloud"
	"capnn/internal/core"
)

// Warm mask-cache handoff: when cluster membership changes, the keys
// that move to a new owner would cold-start there — every affected user
// pays a full repersonalization. Instead the gateway exports the
// outgoing owner's cache (OpCacheExport), filters it down to the moved
// key range, and imports it into the incoming owner (OpCacheImport)
// before the ring epoch flips. CachedMask is the transferable form —
// the same shape checkpoints persist: masks travel, compiled networks
// never do (the importer recompiles each entry before installing it),
// and guard windows start fresh (the new owner must observe its own
// traffic mix before any trip decision).

// CachedMask is one mask-cache entry in durable/transferable form:
// enough to rebuild the entry (and a fresh guard) on restore or import.
type CachedMask struct {
	Key         string
	Variant     string
	Classes     []int
	Weights     []float64
	Masks       map[int][]bool
	PrunedUnits int
	TotalUnits  int
}

// entryFromCached rebuilds a live cache entry from its transferable
// form. The form arrives from outside the process (a handoff payload or
// a checkpoint), so it is validated against this server's network first:
// preferences must name known classes and every mask must index a unit
// layer and match its width. A malformed entry is refused with
// CodeBadRequest rather than cached to fail every later request.
func (s *Server) entryFromCached(cm CachedMask) (*maskEntry, error) {
	bad := func(err error) error {
		return &Error{Code: cloud.CodeBadRequest, Err: fmt.Errorf("entry %q: %w", cm.Key, err)}
	}
	prefs, err := core.Weighted(cm.Classes, cm.Weights)
	if err != nil {
		return nil, bad(err)
	}
	prefs.Normalize()
	if err := prefs.Validate(s.sys.Rates.Classes); err != nil {
		return nil, bad(err)
	}
	stages := s.sys.Net.Stages()
	for idx, m := range cm.Masks {
		if idx < 0 || idx >= len(stages) {
			return nil, bad(fmt.Errorf("mask for unit layer %d, network has %d", idx, len(stages)))
		}
		if want := stages[idx].Unit.Units(); m != nil && len(m) != want {
			return nil, bad(fmt.Errorf("unit layer %d mask has %d entries, want %d", idx, len(m), want))
		}
	}
	return s.newEntry(cm.Key, core.Variant(cm.Variant), prefs, cm.Masks)
}

// cachedMasks snapshots the resident mask cache in transferable form,
// least recently used first (so re-installing in order reproduces the
// recency) — the shape both checkpoints and handoff exports carry.
func (s *Server) cachedMasks() []CachedMask {
	entries := s.cache.snapshot()
	cms := make([]CachedMask, 0, len(entries))
	for _, e := range entries {
		cms = append(cms, CachedMask{
			Key:         e.key,
			Variant:     string(e.variant),
			Classes:     e.prefs.Classes,
			Weights:     e.prefs.Weights,
			Masks:       e.masks,
			PrunedUnits: e.prunedUnits,
			TotalUnits:  e.totalUnits,
		})
	}
	return cms
}

// ExportMasks snapshots the resident mask cache for a warm handoff.
func (s *Server) ExportMasks() []CachedMask {
	cms := s.cachedMasks()
	s.st.handoffExported(len(cms))
	return cms
}

// ImportMasks installs transferred entries into the cache and returns
// how many were installed. Keys the cache already holds are kept — the
// resident entry may be fresher (a heal published against observed
// traffic) than the mover's copy. Each entry is compiled before it is
// installed. A malformed entry aborts the import with a CodeBadRequest
// *Error; entries installed before it stay installed.
func (s *Server) ImportMasks(cms []CachedMask) (int, error) {
	imported := 0
	for _, cm := range cms {
		e, err := s.entryFromCached(cm)
		if err != nil {
			return imported, err
		}
		if s.cache.installIfAbsent(e) {
			imported++
		}
	}
	if imported > 0 {
		s.st.handoffImported(imported)
		s.events.Record("handoff", "", fmt.Sprintf("imported %d warm entries", imported), nil)
	}
	return imported, nil
}

// handleCacheExport answers OpCacheExport with the gob-encoded cache
// snapshot in the response payload.
func (s *Server) handleCacheExport() *WireResponse {
	cms := s.ExportMasks()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cms); err != nil {
		return &WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeInternal,
			Err: fmt.Sprintf("encode cache export: %v", err)}
	}
	return &WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeOK,
		Batch: len(cms), Payload: buf.Bytes()}
}

// handleCacheImport decodes and installs an OpCacheImport payload; the
// response's Batch reports the installed count.
func (s *Server) handleCacheImport(req WireRequest) *WireResponse {
	var cms []CachedMask
	if err := gob.NewDecoder(bytes.NewReader(req.Payload)).Decode(&cms); err != nil {
		return &WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeBadRequest,
			Err: fmt.Sprintf("decode cache import: %v", err)}
	}
	n, err := s.ImportMasks(cms)
	if err != nil {
		code := cloud.CodeInternal
		if te, ok := err.(*Error); ok {
			code = te.Code
		}
		return &WireResponse{Version: cloud.ProtocolVersion, Code: code,
			Err: fmt.Sprintf("import after %d entries: %v", n, err), Batch: n}
	}
	return &WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeOK, Batch: n}
}

// handleRingUpdate decodes an OpRingUpdate payload and hands it to the
// installed ring-update handler. A node without one — a standalone
// server no cluster supervises — acknowledges and ignores the view.
func (s *Server) handleRingUpdate(req WireRequest) *WireResponse {
	var upd RingUpdate
	if err := gob.NewDecoder(bytes.NewReader(req.Payload)).Decode(&upd); err != nil {
		return &WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeBadRequest,
			Err: fmt.Sprintf("decode ring update: %v", err)}
	}
	h := s.ringUpdateFn()
	if h == nil {
		return &WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeOK}
	}
	if err := h(upd); err != nil {
		return &WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeInternal,
			Err: fmt.Sprintf("ring update: %v", err)}
	}
	s.events.Record("ring-changed", "", fmt.Sprintf("installed epoch %d (%d members)", upd.Epoch, len(upd.Members)), nil)
	return &WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeOK}
}
