package server

import (
	"context"
	"fmt"
	"net/http"

	"repro"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/wal"
)

// Mutation endpoints: POST /v1/admin/insert and /v1/admin/delete.
//
// A mutation is acknowledged only after its WAL append returns (in durable
// mode; memory-only otherwise), and is visible only through a freshly built
// immutable snapshot published with the same atomic swap reload uses. The
// serving snapshot is never mutated in place — in-flight queries keep the
// consistent dataset they loaded, and the generation stamps retire the old
// snapshot's caches at swap time. The rebuild makes mutations an admin-rate
// operation (bulk-load cost per call), which is the price of keeping every
// query lock-free.

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.With("insert").Inc()
	req, err := DecodeInsertRequest(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}

	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	snap := s.snap.Load() // under mutMu: no publish can race this read
	if snap == nil {
		s.writeError(w, http.StatusServiceUnavailable, "no dataset loaded")
		return
	}
	if dims := snap.DB.Dims(); len(req.Point) != dims {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("point has %d dims, dataset has %d", len(req.Point), dims))
		return
	}
	if _, dup := snap.byID[req.ID]; dup {
		s.writeError(w, http.StatusConflict, fmt.Sprintf("id %d already present", req.ID))
		return
	}
	it := repro.Item{ID: req.ID, Point: repro.NewPoint(req.Point...)}

	// Mutations skip the admission controller (they hold mutMu instead), so
	// the record says so; the WAL seq that acknowledges the write lands on it.
	began := obs.Now()
	act := s.flight.Begin("insert", "http", fmt.Sprintf("id=%d point=%v", req.ID, req.Point), 0)
	act.SetAdmission("bypass")
	var qerr error
	defer func() { s.finishRecord(act, "insert", began, w, qerr) }()

	seq, qerr := s.commitMutation(w, wal.OpInsert, it)
	if qerr != nil {
		return
	}
	act.SetWALSeq(seq)
	items := make([]repro.Item, 0, len(snap.Items)+1)
	items = append(items, snap.Items...)
	items = append(items, it)
	qerr = s.publishMutated(w, snap, items, seq, len(items), act)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.With("delete").Inc()
	req, err := DecodeDeleteRequest(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}

	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	snap := s.snap.Load()
	if snap == nil {
		s.writeError(w, http.StatusServiceUnavailable, "no dataset loaded")
		return
	}
	stored, ok := snap.byID[req.ID]
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Sprintf("id %d not found", req.ID))
		return
	}
	// An explicit point must match the stored record: deleting "id 7 at p"
	// when id 7 sits elsewhere is a stale-client error, not a delete.
	if len(req.Point) > 0 && !stored.Point.Equal(repro.NewPoint(req.Point...)) {
		s.writeError(w, http.StatusConflict,
			fmt.Sprintf("id %d is not at the given position", req.ID))
		return
	}

	// Refuse before logging: a refused mutation must leave no durable trace,
	// or recovery would replay a delete the client was told failed — and with
	// no later inserts the recovered dataset is empty, which cannot even boot.
	// The item set shrinks to zero only by deleting the whole catalogue —
	// operator territory, not a request path.
	if len(snap.Items) == 1 {
		s.writeError(w, http.StatusConflict, "refusing to delete the last item")
		return
	}

	began := obs.Now()
	act := s.flight.Begin("delete", "http", fmt.Sprintf("id=%d", req.ID), 0)
	act.SetAdmission("bypass")
	var qerr error
	defer func() { s.finishRecord(act, "delete", began, w, qerr) }()

	seq, qerr := s.commitMutation(w, wal.OpDelete, stored)
	if qerr != nil {
		return
	}
	act.SetWALSeq(seq)
	items := make([]repro.Item, 0, len(snap.Items)-1)
	for _, it := range snap.Items {
		if it.ID != req.ID {
			items = append(items, it)
		}
	}
	qerr = s.publishMutated(w, snap, items, seq, len(items), act)
}

// commitMutation appends the record to the WAL — the acknowledgement point.
// Memory-only servers (no Durability) skip the append and report seq 0. A
// degraded log (prior storage fault, or one raised by this very append)
// answers 503 with Retry-After and wakes the reopen probe; the mutation is
// not acknowledged and queries keep serving. A non-nil error is the qerr for
// the flight record — the response has already been written.
func (s *Server) commitMutation(w http.ResponseWriter, op wal.Op, it repro.Item) (uint64, error) {
	if s.wal == nil {
		return 0, nil
	}
	if s.walClosed {
		s.writeError(w, http.StatusServiceUnavailable, "write-ahead log is closed")
		return 0, errWALClosed
	}
	if se := s.wal.Failed(); se != nil {
		s.noteStorageFault()
		s.writeStorageUnavailable(w, fmt.Sprintf("mutations disabled: %v", se))
		return 0, fmt.Errorf("%w: %v", errStorageDegraded, se)
	}
	if s.pendingPub != nil {
		s.noteStorageFault()
		s.writeStorageUnavailable(w, fmt.Sprintf(
			"mutations disabled: wal seq %d logged but not yet published", s.pendingPub.seq))
		return 0, fmt.Errorf("%w: publish pending at wal seq %d", errStorageDegraded, s.pendingPub.seq)
	}
	seq, err := s.wal.Append(op, it)
	if err != nil {
		if s.wal.Failed() != nil {
			// This append degraded the log: flip read-only and start probing.
			s.updateStorageLocked()
			s.noteStorageFault()
			s.writeStorageUnavailable(w, fmt.Sprintf("wal append: %v", err))
			return 0, fmt.Errorf("%w: %v", errStorageDegraded, err)
		}
		s.writeError(w, http.StatusInternalServerError, fmt.Sprintf("wal append: %v", err))
		return 0, err
	}
	return seq, nil
}

// publishMutated builds the post-mutation snapshot and publishes it. Called
// with mutMu held, after the WAL append. The approximate store is never
// carried over or rebuilt here: it was sampled from the pre-mutation item
// set, and serving it would answer for items that no longer exist (reload
// with build_store to regain the approx rung after a mutation burst).
func (s *Server) publishMutated(w http.ResponseWriter, old *Snapshot, items []repro.Item, walSeq uint64, count int, act *flight.Active) error {
	began := obs.Now()
	snap, err := snapshotFromItems(context.Background(), items, old.Name, false, 0, s.dbOptions())
	if err != nil {
		// Unreachable in practice (no store build, items pre-validated), but
		// if it happens the WAL record is durable while the serving state is
		// not: recovery on restart will apply it. Park the logged item set as
		// the pending publish — further mutations are refused so WAL seqs
		// cannot advance past the unapplied record, queries keep serving, and
		// the storage probe retries the publish until it lands (or a reload
		// checkpoint supersedes it).
		if s.wal != nil {
			s.pendingPub = &pendingPublish{items: items, seq: walSeq, name: old.Name}
			s.updateStorageLocked()
			s.noteStorageFault()
			s.writeStorageUnavailable(w, fmt.Sprintf(
				"mutation logged (wal seq %d) but snapshot rebuild failed: %v; publish retry scheduled", walSeq, err))
			return fmt.Errorf("%w: publish of wal seq %d failed: %v", errStorageDegraded, walSeq, err)
		}
		s.writeError(w, http.StatusInternalServerError,
			fmt.Sprintf("mutation logged (wal seq %d) but snapshot rebuild failed: %v", walSeq, err))
		return err
	}
	s.publishLocked(snap)
	act.SetSnapshotSeq(snap.Seq)
	s.metrics.Mutations.Inc()
	body := map[string]any{
		"snapshot_seq": snap.Seq,
		"items":        count,
		"build_ms":     float64(obs.Since(began)) / 1e6,
	}
	if s.wal != nil {
		body["wal_seq"] = walSeq
	}
	s.writeJSON(w, http.StatusOK, body)
	return nil
}
