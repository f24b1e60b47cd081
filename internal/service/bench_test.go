package service

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"testing"

	"aptget/internal/wire"
)

// benchServer returns a handler holding an (empty) plan set for the IS
// registry profile, stored the way a sibling shard's replica is, and
// that profile's body.
func benchServer(b *testing.B) (http.Handler, *wire.Profile, []byte) {
	wp, body := isProfile(b)
	h := New(Config{}).Handler()
	putPlans(b, h, wire.FingerprintBytes(body), wp.ShapeHash(), wire.EncodePlanSet(&wire.PlanSet{App: wp.App}))
	return h, wp, body
}

// ingest drives one POST /v1/profiles through h and checks its status.
func ingest(b *testing.B, h http.Handler, body []byte, want int) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/profiles", bytes.NewReader(body)))
	if rec.Code != want {
		b.Fatalf("ingest = %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// BenchmarkHotIngestHit is the steady state of continuous profiling: a
// client re-sends a profile the daemon already holds (IS, ~300 KB).
// Tracked by the CI bench gate.
func BenchmarkHotIngestHit(b *testing.B) {
	h, _, body := benchServer(b)
	ingest(b, h, body, http.StatusOK) // the first repeat decodes and validates
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ingest(b, h, body, http.StatusOK)
	}
}

// BenchmarkHotIngestStale is the drifted-build path a hash cannot skip:
// every request is a fingerprint the daemon has never seen, for a shape
// it holds, so each one decodes, stale-matches and stores an alias.
// Tracked by the CI bench gate.
func BenchmarkHotIngestStale(b *testing.B) {
	h, wp, _ := benchServer(b)
	// Cycles is a fixed-width (6-byte) varint right after the 6-byte
	// header and the app name; writing another value of that width there
	// gives a new fingerprint for the same shape without re-encoding.
	q := *wp
	q.Cycles = 1 << 40
	body := wire.EncodeProfile(&q)
	off := 7 + len(q.App)
	binary.PutUvarint(body[off:], 1<<40+1)
	if d, err := wire.DecodeProfile(body); err != nil || d.Cycles != 1<<40+1 {
		b.Fatalf("patched Cycles did not decode: %v", err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.PutUvarint(body[off:], 1<<40+2+uint64(i))
		ingest(b, h, body, http.StatusOK)
	}
}
