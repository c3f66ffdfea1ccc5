package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"banks"
	"banks/internal/repl"
	"banks/internal/router"
	"banks/internal/server"
	"banks/internal/shard"
)

// Every deployment is stood up in-process on loopback from the seeded
// dataset: the system under test runs exactly the code cmd/banksd and
// cmd/banksrouter wire together, minus flag parsing and signal handling.

// node is one HTTP listener serving a handler on 127.0.0.1.
type node struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return n, nil
}

func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		_ = n.srv.Close() // a parked replication long-poll outlived the grace window
	}
	<-n.done
}

// library is an engine over a database, the layer every other deployment
// is built on.
type library struct {
	db  *banks.DB
	eng *banks.Engine
}

func openLibrary(db *banks.DB, cacheSize int) (*library, error) {
	eng, err := banks.NewEngine(db, banks.EngineOptions{CacheSize: cacheSize})
	if err != nil {
		return nil, err
	}
	return &library{db: db, eng: eng}, nil
}

func (l *library) close() { _ = l.db.Close() }

// single is one banksd: an engine behind internal/server on a loopback
// listener, optionally live (mutable) and optionally a follower.
type single struct {
	*library
	live     *banks.Live
	follower *repl.Follower
	srv      *server.Server
	node     *node
}

type singleOptions struct {
	cacheSize int // 0 = engine default (256), negative = off
	live      *banks.LiveOptions
	follow    string // primary URL; requires live
	spanName  string
}

func startSingle(snapshot string, o singleOptions, tr *tracer) (*single, error) {
	db, err := banks.OpenSnapshot(snapshot)
	if err != nil {
		return nil, err
	}
	lib, err := openLibrary(db, o.cacheSize)
	if err != nil {
		db.Close()
		return nil, err
	}
	s := &single{library: lib}
	fail := func(err error) (*single, error) { s.close(); return nil, err }
	if o.live != nil {
		if s.live, err = banks.OpenLive(lib.eng, *o.live); err != nil {
			return fail(err)
		}
	}
	if o.follow != "" {
		s.follower, err = repl.StartFollower(repl.FollowerConfig{
			Primary: o.follow, Target: s.live, BasePath: o.live.SnapshotPath,
		})
		if err != nil {
			return fail(err)
		}
	}
	s.srv, err = server.New(server.Config{
		Engine: lib.eng, DB: db, Live: s.live, Follower: s.follower, Dataset: snapshot,
	})
	if err != nil {
		return fail(err)
	}
	if s.node, err = listen(tr.wrapHandler(o.spanName, s.srv.Handler())); err != nil {
		return fail(err)
	}
	return s, nil
}

func (s *single) close() {
	if s.node != nil {
		s.node.close()
	}
	if s.follower != nil {
		s.follower.Close()
	}
	if s.live != nil {
		_ = s.live.Close()
	}
	s.library.close()
}

// routed is a router over numShards × numReplicas banksd instances with
// their result caches off, so every routed query does its core work.
type routed struct {
	shards []*single
	rt     *router.Router
	node   *node
}

const (
	numShards   = 2
	numReplicas = 2
)

func startRouted(db *banks.DB, dir string, tr *tracer) (*routed, error) {
	base := filepath.Join(dir, "routed.snap")
	if _, err := shard.WriteFiles(base, numShards, db.Graph, db.Index, db.Mapping, db.EdgeTypes); err != nil {
		return nil, err
	}
	r := &routed{}
	fail := func(err error) (*routed, error) { r.close(); return nil, err }
	topology := make([][]string, numShards)
	for s := 0; s < numShards; s++ {
		for rep := 0; rep < numReplicas; rep++ {
			one, err := startSingle(shard.FilePath(base, s, numShards), singleOptions{
				cacheSize: -1, spanName: fmt.Sprintf("shard%d.server", s),
			}, tr)
			if err != nil {
				return fail(err)
			}
			r.shards = append(r.shards, one)
			topology[s] = append(topology[s], one.node.url)
		}
	}
	transport := &http.Transport{MaxIdleConnsPerHost: clients() * numShards}
	var err error
	r.rt, err = router.New(router.Config{
		Shards: topology,
		Client: &http.Client{Transport: tr.wrapTransport("router.shardcall", transport)},
	})
	if err != nil {
		return fail(err)
	}
	if r.node, err = listen(tr.wrapHandler("router", r.rt.Handler())); err != nil {
		return fail(err)
	}
	// Replicas start unhealthy until the first probe round lands.
	err = waitFor(10*time.Second, func() (bool, error) {
		var st struct {
			AllHealthy bool `json:"all_healthy"`
			Degraded   bool `json:"degraded"`
		}
		if err := getJSON(r.node.url+"/statusz", &st); err != nil {
			return false, err
		}
		return st.AllHealthy && !st.Degraded, nil
	})
	if err != nil {
		return fail(fmt.Errorf("router never became healthy: %w", err))
	}
	return r, nil
}

func (r *routed) close() {
	if r.node != nil {
		r.node.close()
	}
	if r.rt != nil {
		_ = r.rt.Close()
	}
	for _, s := range r.shards {
		s.close()
	}
}

// replicated is a live primary (WAL, fsync=always) with one follower
// tailing its log, both serving on loopback.
type replicated struct {
	primary, follower *single
	snapshot          string // primary's base path; its WAL is snapshot+".wal"
}

func startReplicated(db *banks.DB, dir string, tr *tracer) (*replicated, error) {
	pdir, fdir := filepath.Join(dir, "primary"), filepath.Join(dir, "follower")
	for _, d := range []string{pdir, fdir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	psnap, fsnap := filepath.Join(pdir, "d.snap"), filepath.Join(fdir, "d.snap")
	if err := db.WriteSnapshotFile(psnap); err != nil {
		return nil, err
	}
	r := &replicated{snapshot: psnap}
	var err error
	r.primary, err = startSingle(psnap, singleOptions{
		live:     &banks.LiveOptions{SnapshotPath: psnap, WALPath: psnap + ".wal", WALFsync: banks.WALFsyncAlways},
		spanName: "primary.server",
	}, tr)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*replicated, error) { r.close(); return nil, err }
	// The follower has no local base: it bootstraps over HTTP, as a
	// fresh banksd -follow does.
	got, _, err := repl.FetchSnapshot(context.Background(), nil, r.primary.node.url, fsnap)
	if err != nil {
		return fail(fmt.Errorf("follower bootstrap: %w", err))
	}
	r.follower, err = startSingle(got, singleOptions{
		live:     &banks.LiveOptions{SnapshotPath: fsnap, WALPath: fsnap + ".wal", WALFsync: banks.WALFsyncAlways},
		follow:   r.primary.node.url,
		spanName: "follower.server",
	}, tr)
	if err != nil {
		return fail(err)
	}
	if err := r.waitCaughtUp(10 * time.Second); err != nil {
		return fail(err)
	}
	return r, nil
}

// waitCaughtUp blocks until the follower is on the primary's generation
// with a log as long as the primary's. (Stats().Connected is no use here:
// it turns true only when the first long-poll returns, which on an idle
// primary is the full poll window.)
func (r *replicated) waitCaughtUp(limit time.Duration) error {
	return waitFor(limit, func() (bool, error) {
		st := r.follower.follower.Stats()
		return st.Generation == r.primary.live.Generation() && st.WALOffset >= r.primary.live.WALSize(), nil
	})
}

func (r *replicated) close() {
	if r.follower != nil {
		r.follower.close()
	}
	if r.primary != nil {
		r.primary.close()
	}
}

// waitFor polls cond every millisecond until it holds or limit passes.
func waitFor(limit time.Duration, cond func() (bool, error)) error {
	deadline := time.Now().Add(limit)
	var last error
	for {
		ok, err := cond()
		if ok {
			return nil
		}
		if err != nil {
			last = err
		}
		if time.Now().After(deadline) {
			return errors.Join(fmt.Errorf("condition not met within %v", limit), last)
		}
		time.Sleep(time.Millisecond)
	}
}

// clients is the number of closed-loop client goroutines (and client
// connections): one per core, never more, so the load generator cannot
// out-schedule the system it shares the cores with.
func clients() int { return runtime.NumCPU() }
