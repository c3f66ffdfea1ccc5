package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"banks/internal/delta"
	"banks/internal/store"
	"banks/internal/wal"
)

// Target is the follower-side seam records are applied through;
// *banks.Live satisfies it.
type Target interface {
	// Generation and DeltaVersion are the local logical position.
	Generation() uint64
	DeltaVersion() uint64
	// WALSize is the local log's end offset — the replication cursor.
	WALSize() int64
	// Replay applies one shipped record under the replay idempotence
	// rules and appends it to the local log when it applies (see
	// delta.Manager.Replay).
	Replay(generation, version uint64, ops []delta.Op) (applied bool, offset int64, err error)
	// AdoptSnapshot hot-swaps a fetched snapshot in as the new base,
	// truncating the local log.
	AdoptSnapshot(ctx context.Context, path string) (uint64, error)
	// SetBaseNodes adopts the primary's label split point.
	SetBaseNodes(n int)
}

// FollowerConfig configures StartFollower.
type FollowerConfig struct {
	// Primary is the primary's base URL (scheme://host:port).
	Primary string
	// Target is the local serving instance records apply to. It must
	// have a write-ahead log — the local log is the replication cursor
	// and what makes a follower restart resume instead of re-bootstrap.
	Target Target
	// BasePath is the local snapshot base path; fetched generations are
	// installed under it with the ".genN" convention.
	BasePath string
	// Client issues the HTTP requests (nil means a dedicated client; it
	// must not have a global timeout shorter than PollWait).
	Client *http.Client
	// PollWait is the long-poll window requested from the primary
	// (0 means 10s).
	PollWait time.Duration
	// Backoff and MaxBackoff bound the reconnect schedule (0 means
	// 200ms / 5s).
	Backoff, MaxBackoff time.Duration
	// Logf, when non-nil, receives connection lifecycle messages.
	Logf func(format string, args ...any)
}

// FollowerStats is a point-in-time sample of a follower's replication
// state — the /statusz replication block and the lag metrics read it.
type FollowerStats struct {
	Primary string `json:"primary"`
	// Connected reports whether the last poll of the primary succeeded.
	Connected bool `json:"connected"`
	// Generation is the local base generation.
	Generation uint64 `json:"generation"`
	// WALOffset is the local log end — the position this follower's
	// answers are exact at. PrimaryWALOffset is the primary's log end at
	// the last successful poll; LagBytes is the gap.
	WALOffset        int64 `json:"wal_offset"`
	PrimaryWALOffset int64 `json:"primary_wal_offset"`
	LagBytes         int64 `json:"lag_bytes"`
	// LagRecords is how many acknowledged batches the follower still has
	// to apply; LagSeconds how long it has been behind (0 when caught
	// up).
	LagRecords int64   `json:"lag_records"`
	LagSeconds float64 `json:"lag_seconds"`
	// RecordsApplied / BytesApplied / Bootstraps / Reconnects are
	// lifetime counters for this process.
	RecordsApplied uint64 `json:"records_applied"`
	BytesApplied   int64  `json:"bytes_applied"`
	Bootstraps     uint64 `json:"bootstraps"`
	Reconnects     uint64 `json:"reconnects"`
	LastError      string `json:"last_error,omitempty"`
}

// Follower tails a primary's replication log: bootstrap when the
// handshake demands it, catch up, then long-poll the tail, reconnecting
// with exponential backoff on any failure. One goroutine, started by
// StartFollower, owns the whole lifecycle.
type Follower struct {
	cfg    FollowerConfig
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu         sync.Mutex
	stats      FollowerStats
	caughtUpAt time.Time // last moment the follower was at the primary's offset
	behind     bool      // currently lagging (LagSeconds counts from caughtUpAt)
}

// StartFollower validates the config and starts the tail loop.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Primary == "" || cfg.Target == nil {
		return nil, errors.New("repl: follower requires a primary URL and a target")
	}
	if cfg.Target.WALSize() < wal.HeaderSize {
		return nil, errors.New("repl: follower target has no write-ahead log (the local log is the replication cursor)")
	}
	if cfg.BasePath == "" {
		return nil, errors.New("repl: follower requires a snapshot base path to install fetched generations under")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 10 * time.Second
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 200 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{cfg: cfg, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	f.stats.Primary = cfg.Primary
	f.caughtUpAt = time.Now()
	f.behind = true // not caught up until the first successful poll says so
	go f.run()
	return f, nil
}

// Close stops the tail loop and waits for it to exit.
func (f *Follower) Close() {
	f.cancel()
	<-f.done
}

// Stats samples the follower.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	st.Generation = f.cfg.Target.Generation()
	st.WALOffset = f.cfg.Target.WALSize()
	if f.behind {
		st.LagSeconds = time.Since(f.caughtUpAt).Seconds()
	}
	return st
}

func (f *Follower) run() {
	defer close(f.done)
	backoff := f.cfg.Backoff
	for f.ctx.Err() == nil {
		err := f.poll()
		if err == nil {
			backoff = f.cfg.Backoff
			continue
		}
		if f.ctx.Err() != nil {
			return
		}
		f.mu.Lock()
		f.stats.Connected = false
		f.stats.LastError = err.Error()
		f.stats.Reconnects++
		f.mu.Unlock()
		f.cfg.Logf("repl: follower of %s: %v (retrying in %s)", f.cfg.Primary, err, backoff)
		select {
		case <-time.After(backoff):
		case <-f.ctx.Done():
			return
		}
		if backoff *= 2; backoff > f.cfg.MaxBackoff {
			backoff = f.cfg.MaxBackoff
		}
	}
}

// poll performs one log fetch — long-polling when caught up — and
// applies what it returns. nil means the connection is healthy.
func (f *Follower) poll() error {
	t := f.cfg.Target
	from := t.WALSize()
	url := fmt.Sprintf("%s/v1/replication/log?gen=%d&from=%d&wait=%d",
		f.cfg.Primary, t.Generation(), from, f.cfg.PollWait.Milliseconds())
	// The deadline must outlast the requested long-poll window.
	ctx, cancel := context.WithTimeout(f.ctx, f.cfg.PollWait+30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return fmt.Errorf("log fetch: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		// The handshake: our (generation, offset) no longer addresses the
		// primary's log — it compacted past us (or we diverged). Fetch
		// its current base and adopt it.
		return f.bootstrap()
	default:
		return fmt.Errorf("log fetch: primary answered %s", resp.Status)
	}

	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("log body: %w", err)
	}
	applied := 0
	if len(body) > 0 {
		recs, err := wal.DecodeFrames(body)
		if err != nil {
			// Torn or damaged chunk: apply nothing from it, reconnect.
			return fmt.Errorf("log stream: %w", err)
		}
		for _, rec := range recs {
			ok, _, err := t.Replay(rec.Generation, rec.Version, rec.Ops)
			if err != nil {
				return fmt.Errorf("apply replicated record (gen %d, version %d): %w", rec.Generation, rec.Version, err)
			}
			if ok {
				applied++
			}
		}
		if t.WALSize() == from {
			// Every record in a non-empty chunk was a skip: the primary is
			// re-serving history we already hold, which from == our log end
			// rules out unless the logs diverged.
			return fmt.Errorf("replication stalled: %d bytes from offset %d applied nothing", len(body), from)
		}
	}

	pos, perr := parsePosition(resp.Header)
	f.mu.Lock()
	f.stats.Connected = true
	f.stats.LastError = ""
	f.stats.RecordsApplied += uint64(applied)
	f.stats.BytesApplied += int64(len(body))
	if perr == nil {
		f.stats.PrimaryWALOffset = pos.WALSize
		local := t.WALSize()
		f.stats.LagBytes = pos.WALSize - local
		f.stats.LagRecords = int64(pos.DeltaVersion) - int64(t.DeltaVersion())
		if pos.Generation != t.Generation() {
			// Mid-handshake (the primary compacted since this response was
			// built): byte lag is cross-generation and meaningless, record
			// lag likewise. Report "behind, amount unknown" as non-zero.
			f.stats.LagBytes = 1
			f.stats.LagRecords = 1
		}
		if f.stats.LagBytes <= 0 && f.stats.LagRecords <= 0 {
			f.stats.LagBytes, f.stats.LagRecords = 0, 0
			f.behind = false
			f.caughtUpAt = time.Now()
		} else {
			f.behind = true
		}
	}
	f.mu.Unlock()
	if perr == nil {
		t.SetBaseNodes(pos.BaseNodes)
	}
	return nil
}

// bootstrap fetches the primary's current base snapshot, installs it
// under BasePath, and hot-swaps it in. The local WAL resets with the
// adoption, so the next poll resumes from the log's start — exactly
// where the primary's post-compaction log begins.
func (f *Follower) bootstrap() error {
	ctx, cancel := context.WithTimeout(f.ctx, 5*time.Minute)
	defer cancel()
	path, pos, err := FetchSnapshot(ctx, f.cfg.Client, f.cfg.Primary, f.cfg.BasePath)
	if err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	gen, err := f.cfg.Target.AdoptSnapshot(ctx, path)
	if err != nil {
		return fmt.Errorf("bootstrap: adopt %s: %w", path, err)
	}
	f.cfg.Target.SetBaseNodes(pos.BaseNodes)
	f.mu.Lock()
	f.stats.Bootstraps++
	f.mu.Unlock()
	f.cfg.Logf("repl: follower of %s: bootstrapped generation %d from %s", f.cfg.Primary, gen, path)
	return nil
}

// FetchSnapshot downloads the primary's current base snapshot, verifies
// it opens, and installs it under basePath with the generation-suffix
// convention (basePath itself for generation 0, basePath+".genN"
// otherwise — the layout LatestSnapshotPath resolves on restart). The
// installed path and the primary's position at fetch time are returned;
// the file's own generation, not the header, decides the name.
func FetchSnapshot(ctx context.Context, client *http.Client, primary, basePath string) (string, Position, error) {
	if client == nil {
		client = &http.Client{}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, primary+"/v1/replication/snapshot", nil)
	if err != nil {
		return "", Position{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", Position{}, fmt.Errorf("snapshot fetch: %w", err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return "", Position{}, fmt.Errorf("snapshot fetch: primary answered %s: %s", resp.Status, snippet)
	}
	pos, perr := parsePosition(resp.Header)
	if perr != nil {
		return "", Position{}, perr
	}

	tmp := basePath + ".fetch.tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return "", Position{}, err
	}
	if _, err := io.Copy(out, resp.Body); err != nil {
		out.Close()
		os.Remove(tmp)
		return "", Position{}, fmt.Errorf("snapshot download: %w", err)
	}
	if err := out.Sync(); err != nil {
		out.Close()
		os.Remove(tmp)
		return "", Position{}, err
	}
	if err := out.Close(); err != nil {
		os.Remove(tmp)
		return "", Position{}, err
	}

	// The file is authoritative for its own generation: verify it opens
	// and name it accordingly.
	snap, err := store.Open(tmp, store.Options{})
	if err != nil {
		os.Remove(tmp)
		return "", Position{}, fmt.Errorf("fetched snapshot does not verify: %w", err)
	}
	gen := snap.Generation
	snap.Close()
	dest := basePath
	if gen > 0 {
		dest = fmt.Sprintf("%s.gen%d", basePath, gen)
	}
	if err := os.Rename(tmp, dest); err != nil {
		os.Remove(tmp)
		return "", Position{}, err
	}
	pos.Generation = gen
	return dest, pos, nil
}
