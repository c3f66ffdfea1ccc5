package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"banks"
	"banks/internal/api"
	"banks/internal/repl"
	"banks/internal/wal"
)

// TestReplicationLogEndpoint pins the wire contract of the publisher as
// mounted by the server: raw WAL frames from an offset, position headers
// on every response, empty-body 200 when caught up, and a 409 + Position
// handshake when the client's generation is stale.
func TestReplicationLogEndpoint(t *testing.T) {
	s, ts, _ := newWALServer(t)

	for i := 0; i < 3; i++ {
		code, body := post(t, ts, "/v1/mutate", "", fmt.Sprintf(`{"ops":[
			{"op":"insert_node","table":"paper","text":"repl endpoint probe %d"}
		]}`, i))
		if code != 200 {
			t.Fatalf("mutate %d: %d %s", i, code, body)
		}
	}
	wantSize := s.live.WALSize()

	code, body, hdr := get(t, ts, fmt.Sprintf("/v1/replication/log?gen=0&from=%d", wal.HeaderSize), "")
	if code != 200 {
		t.Fatalf("log fetch: %d %s", code, body)
	}
	recs, err := wal.DecodeFrames(body)
	if err != nil {
		t.Fatalf("served frames do not decode: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if got := hdr.Get(repl.HeaderWALSize); got != strconv.FormatInt(wantSize, 10) {
		t.Fatalf("%s = %q, want %d", repl.HeaderWALSize, got, wantSize)
	}
	if hdr.Get(repl.HeaderGeneration) != "0" || hdr.Get(repl.HeaderDeltaVersion) != "3" {
		t.Fatalf("position headers: gen=%q ver=%q", hdr.Get(repl.HeaderGeneration), hdr.Get(repl.HeaderDeltaVersion))
	}
	if hdr.Get(repl.HeaderBaseNodes) == "" {
		t.Fatalf("missing %s header", repl.HeaderBaseNodes)
	}

	// Caught up: empty 200, headers still present.
	code, body, hdr = get(t, ts, fmt.Sprintf("/v1/replication/log?gen=0&from=%d", wantSize), "")
	if code != 200 || len(body) != 0 {
		t.Fatalf("caught-up fetch: %d, %d body bytes", code, len(body))
	}
	if hdr.Get(repl.HeaderWALSize) == "" {
		t.Fatal("caught-up response lost its position headers")
	}

	// Stale generation: 409 with the primary's Position so the follower
	// can decide to re-bootstrap.
	code, body, _ = get(t, ts, fmt.Sprintf("/v1/replication/log?gen=7&from=%d", wal.HeaderSize), "")
	if code != http.StatusConflict {
		t.Fatalf("stale-gen fetch: %d %s, want 409", code, body)
	}
	var pos repl.Position
	if err := json.Unmarshal(body, &pos); err != nil {
		t.Fatalf("409 body is not a Position: %v\n%s", err, body)
	}
	if pos.Generation != 0 || pos.WALSize != wantSize {
		t.Fatalf("handshake position: %+v", pos)
	}

	// Snapshot endpoint streams the base snapshot with position headers.
	code, body, hdr = get(t, ts, "/v1/replication/snapshot", "")
	if code != 200 || len(body) == 0 {
		t.Fatalf("snapshot fetch: %d, %d body bytes", code, len(body))
	}
	if hdr.Get(repl.HeaderGeneration) != "0" {
		t.Fatalf("snapshot generation header: %q", hdr.Get(repl.HeaderGeneration))
	}
}

// newFollowerServer stands up a second WAL-backed live over the shared DB
// and starts a follower tailing the given primary. Both sides build their
// base from the same in-process DB, so state converges to byte identity
// once the log is drained.
func newFollowerServer(t *testing.T, primaryURL string) (*Server, *httptest.Server, *repl.Follower) {
	t.Helper()
	dir := t.TempDir()
	db := testDB(t)
	eng, err := banks.NewEngine(db, banks.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	live, err := banks.OpenLive(eng, banks.LiveOptions{
		SnapshotPath: filepath.Join(dir, "follower.banksnap"),
		WALPath:      filepath.Join(dir, "follower.wal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() })
	f, err := repl.StartFollower(repl.FollowerConfig{
		Primary:  primaryURL,
		Target:   live,
		BasePath: filepath.Join(dir, "follower.banksnap"),
		PollWait: 200 * time.Millisecond,
		Backoff:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	s, err := New(Config{Engine: eng, DB: db, Live: live, Tenants: generousTenants(), Follower: f})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, f
}

// waitCaughtUp polls the follower until it reports zero lag against the
// given primary WAL size.
func waitCaughtUp(t *testing.T, f *repl.Follower, primarySize int64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st := f.Stats()
		if st.Connected && st.WALOffset == primarySize && st.LagRecords == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("follower never caught up to %d: %+v", primarySize, f.Stats())
}

// TestFollowerServerEndToEnd drives a primary/follower pair through the
// full serving stack: mutations on the primary become visible on the
// follower, searches answer byte-identically, local writes are rejected
// with not_primary, and /statusz + /metrics disclose the replication
// state.
func TestFollowerServerEndToEnd(t *testing.T) {
	ps, pts, _ := newWALServer(t)
	_, fts, f := newFollowerServer(t, pts.URL)

	code, body := post(t, pts, "/v1/mutate", "", `{"ops":[
		{"op":"insert_node","table":"paper","text":"xylocarp replication serving"},
		{"op":"insert_node","table":"paper","text":"xylocarp follower identity"}
	]}`)
	if code != 200 {
		t.Fatalf("primary mutate: %d %s", code, body)
	}
	waitCaughtUp(t, f, ps.live.WALSize())

	// The same search must answer byte-identically on both sides —
	// including the labels of the runtime-inserted nodes.
	const q = "/v1/search?q=xylocarp&k=5"
	pc, pbody, _ := get(t, pts, q, "")
	fc, fbody, _ := get(t, fts, q, "")
	if pc != 200 || fc != 200 {
		t.Fatalf("search: primary %d, follower %d", pc, fc)
	}
	var pr, fr struct {
		Answers json.RawMessage `json:"answers"`
	}
	if err := json.Unmarshal(pbody, &pr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fbody, &fr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pr.Answers, fr.Answers) {
		t.Fatalf("answers diverged:\nprimary:  %s\nfollower: %s", pr.Answers, fr.Answers)
	}

	// Local writes on the follower are rejected with not_primary naming
	// the leader.
	code, body = post(t, fts, "/v1/mutate", "", `{"ops":[
		{"op":"insert_node","table":"paper","text":"forbidden fork"}
	]}`)
	if code != http.StatusConflict {
		t.Fatalf("follower mutate: %d %s, want 409", code, body)
	}
	var env struct {
		Error struct {
			Code   string `json:"code"`
			Detail string `json:"detail"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != api.CodeNotPrimary {
		t.Fatalf("error.code = %q, want %q", env.Error.Code, api.CodeNotPrimary)
	}
	if !bytes.Contains([]byte(env.Error.Detail), []byte(pts.URL)) {
		t.Fatalf("not_primary detail does not name the primary: %q", env.Error.Detail)
	}
	if code, body = post(t, fts, "/v1/compact", "", `{}`); code != http.StatusConflict {
		t.Fatalf("follower compact: %d %s, want 409", code, body)
	}

	// /statusz on the follower discloses the replication block.
	_, sbody, _ := get(t, fts, "/statusz", "")
	var st struct {
		Replication *repl.FollowerStats `json:"replication"`
	}
	if err := json.Unmarshal(sbody, &st); err != nil {
		t.Fatal(err)
	}
	if st.Replication == nil {
		t.Fatalf("no replication block in follower /statusz: %s", sbody)
	}
	if !st.Replication.Connected || st.Replication.Primary != pts.URL {
		t.Fatalf("replication block: %+v", st.Replication)
	}
	if st.Replication.LagRecords != 0 || st.Replication.RecordsApplied == 0 {
		t.Fatalf("replication counters: %+v", st.Replication)
	}

	// /metrics on the follower exposes the lag series.
	_, mbody, _ := get(t, fts, "/metrics", "")
	for _, series := range []string{
		"banksd_replication_connected 1",
		"banksd_replication_lag_records 0",
		"banksd_replication_records_applied_total",
	} {
		if !bytes.Contains(mbody, []byte(series)) {
			t.Fatalf("metrics missing %q:\n%s", series, mbody)
		}
	}
}
