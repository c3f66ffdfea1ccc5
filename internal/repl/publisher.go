package repl

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"banks/internal/api"
	"banks/internal/wal"
)

// Source is the primary-side seam the Publisher serves from;
// *banks.Live satisfies it.
type Source interface {
	// Generation is the current base snapshot generation.
	Generation() uint64
	// DeltaVersion counts records applied since the base.
	DeltaVersion() uint64
	// BaseNodes is the label split point (see Position.BaseNodes).
	BaseNodes() int
	// BasePath is the snapshot file backing the current base ("" when
	// bootstrapping is impossible — no snapshot path configured).
	BasePath() string
	// WALSize, WALChanged and WALReadAt expose the log; see wal.Log.
	WALSize() int64
	WALChanged() <-chan struct{}
	WALReadAt(from int64, max int) ([]byte, int64, error)
}

// PublisherConfig configures a Publisher.
type PublisherConfig struct {
	Source Source
	// MaxChunk bounds one log response body (0 means 1 MiB). A single
	// frame larger than the bound is still served whole.
	MaxChunk int
	// MaxWait caps the long-poll window a client may request (0 means
	// 25s).
	MaxWait time.Duration
}

// Publisher serves a primary's WAL to followers: the log endpoint with
// long-poll tailing and the 409 bootstrap handshake, and the snapshot
// endpoint that hands out the current base file.
type Publisher struct {
	cfg PublisherConfig
}

// NewPublisher validates the config and returns a Publisher.
func NewPublisher(cfg PublisherConfig) (*Publisher, error) {
	if cfg.Source == nil {
		return nil, errors.New("repl: publisher requires a source")
	}
	if cfg.MaxChunk <= 0 {
		cfg.MaxChunk = 1 << 20
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 25 * time.Second
	}
	return &Publisher{cfg: cfg}, nil
}

func (p *Publisher) position() Position {
	s := p.cfg.Source
	return Position{
		Generation:   s.Generation(),
		DeltaVersion: s.DeltaVersion(),
		WALSize:      s.WALSize(),
		BaseNodes:    s.BaseNodes(),
	}
}

// conflict answers the bootstrap handshake: 409 with the primary's
// position as the body. Not an error envelope — the follower's next
// move (fetch the snapshot, resume tailing) is encoded in the status.
func (p *Publisher) conflict(w http.ResponseWriter, pos Position) {
	setPositionHeaders(w.Header(), pos)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusConflict)
	json.NewEncoder(w).Encode(pos)
}

// ServeLog handles GET /v1/replication/log?gen=G&from=N&wait=MS: whole
// WAL frames from offset N as long as (G, N) addresses this log, a 409
// handshake when it does not (the follower is behind a compaction, or
// its log diverged), and a long-poll park when the follower is caught
// up and asked to wait.
func (p *Publisher) ServeLog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, &api.Error{Status: http.StatusMethodNotAllowed, Code: api.CodeMethodNotAllowed, Detail: "replication log is GET-only"})
		return
	}
	q := r.URL.Query()
	gen, err := strconv.ParseUint(q.Get("gen"), 10, 64)
	if err != nil {
		api.WriteError(w, api.BadRequest("gen", "gen must be the follower's base generation"))
		return
	}
	from, err := strconv.ParseInt(q.Get("from"), 10, 64)
	if err != nil {
		api.WriteError(w, api.BadRequest("from", "from must be the follower's WAL end offset"))
		return
	}
	var wait time.Duration
	if s := q.Get("wait"); s != "" {
		ms, err := strconv.ParseInt(s, 10, 64)
		if err != nil || ms < 0 {
			api.WriteError(w, api.BadRequest("wait", "wait must be a non-negative millisecond count"))
			return
		}
		wait = time.Duration(ms) * time.Millisecond
	}
	if wait > p.cfg.MaxWait {
		wait = p.cfg.MaxWait
	}
	deadline := time.Now().Add(wait)

	for {
		// Grab the change channel before reading the position: any append
		// that lands after the read closes this channel, so the park below
		// cannot miss it.
		ch := p.cfg.Source.WALChanged()
		pos := p.position()
		if gen != pos.Generation || from < wal.HeaderSize || from > pos.WALSize {
			p.conflict(w, pos)
			return
		}
		chunk, _, err := p.cfg.Source.WALReadAt(from, p.cfg.MaxChunk)
		if err != nil {
			// The offset stopped addressing the log mid-request (a
			// compaction reset it): resync the follower. Anything else is
			// a real fault.
			var ce *wal.ErrCorrupt
			if errors.As(err, &ce) {
				api.WriteError(w, &api.Error{Status: http.StatusInternalServerError, Code: api.CodeInternal, Detail: "replication log read: " + err.Error()})
				return
			}
			p.conflict(w, p.position())
			return
		}
		if len(chunk) > 0 {
			setPositionHeaders(w.Header(), pos)
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(chunk)))
			w.Write(chunk)
			return
		}
		if wait <= 0 || !time.Now().Before(deadline) {
			// Caught up and out of patience: empty 200, headers only.
			setPositionHeaders(w.Header(), pos)
			w.WriteHeader(http.StatusOK)
			return
		}
		park := time.NewTimer(time.Until(deadline))
		select {
		case <-ch:
			park.Stop()
		case <-park.C:
		case <-r.Context().Done():
			park.Stop()
			return
		}
	}
}

// ServeSnapshot handles GET /v1/replication/snapshot: the primary's
// current base snapshot file, streamed verbatim, with position headers.
// The follower verifies the file's own generation after download — the
// file, not the headers, is authoritative (the base may advance while
// the body streams; the stale file is still a valid bootstrap, the
// follower just re-handshakes).
func (p *Publisher) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, &api.Error{Status: http.StatusMethodNotAllowed, Code: api.CodeMethodNotAllowed, Detail: "replication snapshot is GET-only"})
		return
	}
	pos := p.position()
	path := p.cfg.Source.BasePath()
	if path == "" {
		api.WriteError(w, &api.Error{Status: http.StatusServiceUnavailable, Code: api.CodeInternal, Detail: "this primary has no snapshot path; followers cannot bootstrap from it"})
		return
	}
	f, err := os.Open(path)
	if err != nil {
		// A gen-0 primary whose base was never materialized to disk has
		// nothing to bootstrap from — that is an availability condition
		// (start the primary from a snapshot file), not a server bug.
		status := http.StatusInternalServerError
		if os.IsNotExist(err) {
			status = http.StatusServiceUnavailable
		}
		api.WriteError(w, &api.Error{Status: status, Code: api.CodeInternal, Detail: "open base snapshot: " + err.Error()})
		return
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		api.WriteError(w, &api.Error{Status: http.StatusInternalServerError, Code: api.CodeInternal, Detail: "stat base snapshot: " + err.Error()})
		return
	}
	setPositionHeaders(w.Header(), pos)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(st.Size(), 10))
	io.Copy(w, f)
}
