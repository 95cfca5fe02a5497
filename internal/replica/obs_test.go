package replica_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"relm/internal/obs"
)

// TestShipTracePropagation: every request of one ship cycle carries the
// same trace ID, so the follower's trace ring groups a whole catch-up
// pass — the status fetch and each segment chunk — under one identifier.
func TestShipTracePropagation(t *testing.T) {
	rig := newShipRig(t, 512)
	rig.append(t, 10)
	if err := rig.set.SyncNow(); err != nil {
		t.Fatalf("sync: %v", err)
	}

	resp, err := http.Get(rig.srv.URL + "/v1/traces")
	if err != nil {
		t.Fatalf("traces: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traces: status %d", resp.StatusCode)
	}
	var tr obs.TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatalf("decode traces: %v", err)
	}

	// Group the follower's traces by ID and find the ship cycle's: the
	// trace ID that covers both the status fetch and at least one segment
	// ingest.
	paths := make(map[string]map[string]bool)
	for _, rec := range tr.Traces {
		if !strings.HasPrefix(rec.ID, "t-") {
			t.Fatalf("trace without minted ID: %+v", rec)
		}
		if paths[rec.ID] == nil {
			paths[rec.ID] = make(map[string]bool)
		}
		paths[rec.ID][rec.Path] = true
	}
	found := false
	for _, p := range paths {
		if p["/v1/replica/status"] && p["/v1/replica/segments"] {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no single trace ID spans status fetch and segment ingest: %v", paths)
	}
}
