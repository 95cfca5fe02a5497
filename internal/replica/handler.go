package replica

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"relm/internal/wire"
)

// Handler serves the follower half of the replication protocol, the three
// requests a primary's ship cycle sends (exchange in ship.go):
//
//	GET  /v1/replica/status    both roles' status; ?primary= keeps one replica
//	POST /v1/replica/segments  ingest one chunk (?primary=&segment=&offset=&min=):
//	                           200 + new size, 409 + current size on an offset
//	                           mismatch, 410 once the replica is promoted
//	POST /v1/replica/snapshot  install a snapshot (?primary=&hash=): 200 or 410
//
// s may be nil — replication off. That is not an error to a shipper probing
// a peer: status answers an empty StatusResponse under node, which reads as
// "holds nothing of mine"; the two ingests answer 503.
func Handler(s *Set, node string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replica/status", func(w http.ResponseWriter, r *http.Request) {
		if s == nil {
			wire.WriteJSON(w, http.StatusOK, StatusResponse{Node: node})
			return
		}
		st := s.Status()
		if p := r.URL.Query().Get("primary"); p != "" {
			var keep []PrimaryStatus
			for _, ps := range st.Primaries {
				if ps.Primary == p {
					keep = append(keep, ps)
				}
			}
			st.Primaries = keep
		}
		wire.WriteJSON(w, http.StatusOK, st)
	})
	// ingest reads one shipped body, refusing one of more than limit bytes,
	// and acks what put made of it.
	ingest := func(limit int64, put func(q url.Values, data []byte) (int64, error)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if s == nil {
				wire.WriteJSON(w, http.StatusServiceUnavailable, IngestResponse{Error: "replication not configured"})
				return
			}
			data, err := readBody(r, limit)
			if err != nil {
				ack(w, 0, err)
				return
			}
			size, err := put(r.URL.Query(), data)
			ack(w, size, err)
		}
	}
	mux.Handle("POST /v1/replica/segments", ingest(64<<20, func(q url.Values, data []byte) (int64, error) {
		segment, err1 := strconv.ParseUint(q.Get("segment"), 10, 64)
		offset, err2 := strconv.ParseInt(q.Get("offset"), 10, 64)
		var min uint64
		var err3 error
		if v := q.Get("min"); v != "" {
			min, err3 = strconv.ParseUint(v, 10, 64)
		}
		if err1 != nil || err2 != nil || err3 != nil {
			return 0, errors.New("bad segment/offset/min")
		}
		return s.Ingest(q.Get("primary"), segment, offset, min, data)
	}))
	mux.Handle("POST /v1/replica/snapshot", ingest(256<<20, func(q url.Values, data []byte) (int64, error) {
		return int64(len(data)), s.IngestSnapshot(q.Get("primary"), q.Get("hash"), data)
	}))
	return mux
}

// readBody reads a request body of at most limit bytes whole; a longer one
// is an error, never a prefix passed on as the body. A declared length
// sizes the buffer once (a snapshot is megabytes).
func readBody(r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, fmt.Errorf("replica: body of %d bytes over the %d-byte limit", r.ContentLength, limit)
	}
	if r.ContentLength >= 0 {
		data := make([]byte, r.ContentLength)
		if _, err := io.ReadFull(r.Body, data); err != nil {
			return nil, fmt.Errorf("replica: read body: %w", err)
		}
		return data, nil
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return nil, fmt.Errorf("replica: read body: %w", err)
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("replica: body over the %d-byte limit", limit)
	}
	return data, nil
}

// ack answers one ingest request: the new size, or err as the shipper's
// exchange reads it — 410 for a fenced replica, 409 with the size to resume
// from for an offset mismatch, 400 for anything else.
func ack(w http.ResponseWriter, size int64, err error) {
	var oe *OffsetError
	switch {
	case err == nil:
		wire.WriteJSON(w, http.StatusOK, IngestResponse{Size: size})
	case errors.Is(err, ErrFenced):
		wire.WriteJSON(w, http.StatusGone, IngestResponse{Error: err.Error()})
	case errors.As(err, &oe):
		wire.WriteJSON(w, http.StatusConflict, IngestResponse{Size: oe.Size, Error: err.Error()})
	default:
		wire.WriteJSON(w, http.StatusBadRequest, IngestResponse{Error: err.Error()})
	}
}
