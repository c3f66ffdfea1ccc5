// Command banksd serves BANKS keyword search over HTTP: the interactive,
// multi-tenant front end the paper's system implies (§1), layered on
// banks.Engine. See docs/SERVING.md for the API.
//
// Usage:
//
//	banksd [-addr :8080] [-snapshot dblp.snap | -dataset dblp -factor 0.25]
//	       [-parallel 0] [-cache 256] [-max-inflight 0]
//	       [-tenants tenants.json] [-drain-timeout 15s]
//	       [-live [-wal] [-wal-fsync always] [-compact-after-ops N] [-compact-after-bytes N]]
//
// -snapshot serves from a memory-mapped snapshot file (see cmd/datagen
// -out), building and saving it first if absent — the fast path for
// production restarts. -parallel sets the engine worker-pool width
// (0 = GOMAXPROCS) and -max-inflight the admission limit (0 = 4× pool).
// -tenants points at a JSON file of per-tenant caps (docs/SERVING.md has
// the schema); without it every tenant gets the built-in limits.
//
// With -live, -wal write-ahead-logs every acknowledged mutation batch to
// <snapshot>.wal (fsync per -wal-fsync) and replays the log on restart,
// so a crash loses nothing that was acknowledged; restarts also resume
// from the newest <snapshot>.genN compaction output. -compact-after-ops
// and -compact-after-bytes bound recovery time by folding the overlay
// into a new generation automatically. See docs/MUTATIONS.md and
// docs/WAL_FORMAT.md.
//
// On SIGTERM or SIGINT the server drains gracefully: /healthz flips to
// 503, listeners close, in-flight requests run to completion (bounded by
// -drain-timeout), and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"banks"
	"banks/internal/datagen"
	"banks/internal/repl"
	"banks/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("banksd: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	dataset := flag.String("dataset", "dblp", "dataset family: dblp, imdb or patents")
	factor := flag.Float64("factor", 0.25, "dataset scale factor (1 ≈ 180k tuples)")
	snapshot := flag.String("snapshot", "", "serve from this snapshot file (building and saving it first if absent)")
	parallel := flag.Int("parallel", 0, "engine worker-pool width (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", 0, "result-cache entries (0 = default 256, negative disables)")
	maxInFlight := flag.Int("max-inflight", 0, "admission limit on concurrent query requests (0 = 4x pool width)")
	tenantsPath := flag.String("tenants", "", "JSON file of per-tenant serving limits (see docs/SERVING.md)")
	liveFlag := flag.Bool("live", false, "enable live mutations (POST /v1/mutate and /v1/compact; see docs/MUTATIONS.md)")
	livePrestige := flag.String("live-prestige", "random-walk", "prestige mode the served data was built with (random-walk, indegree, uniform); the mutation overlay recomputes prestige in the same mode")
	walFlag := flag.Bool("wal", false, "write-ahead-log mutations for crash recovery (requires -live and -snapshot; the log lives at <snapshot>.wal and is replayed on restart; see docs/WAL_FORMAT.md)")
	walPath := flag.String("wal-path", "", "write-ahead-log file (overrides the <snapshot>.wal convention; implies -wal)")
	walFsync := flag.String("wal-fsync", "always", "WAL fsync policy: always (fsync before every ack), interval (group commit), never (leave it to the OS)")
	compactAfterOps := flag.Uint64("compact-after-ops", 0, "auto-compact once this many ops accumulate since the base generation (0 disables)")
	compactAfterBytes := flag.Int64("compact-after-bytes", 0, "auto-compact once the WAL grows past this many bytes (0 disables)")
	follow := flag.String("follow", "", "run as a replication follower tailing this primary's WAL, e.g. http://primary:8080 (requires -live -wal -snapshot; local writes answer 409 not_primary; see docs/REPLICATION.md)")
	drainGrace := flag.Duration("drain-grace", time.Second, "window between /healthz turning 503 and the listener closing, so load balancers can observe unreadiness and stop routing (0 for tests)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long graceful shutdown waits for in-flight requests")
	flag.Parse()

	tenants := server.DefaultTenantConfig()
	if *tenantsPath != "" {
		var err error
		if tenants, err = server.LoadTenants(*tenantsPath); err != nil {
			return err
		}
	}

	if *follow != "" {
		// Follower mode needs the full durable-state kit: a snapshot path
		// to root the base under, and a WAL to re-append the primary's
		// records to (that re-append is what makes wal_offset comparable
		// across the pair).
		if *snapshot == "" {
			return errors.New("-follow needs -snapshot (the follower roots its base and fetched generations there)")
		}
		if !*liveFlag {
			return errors.New("-follow needs -live (the follower applies the primary's mutations through the live overlay)")
		}
		if !*walFlag && *walPath == "" {
			return errors.New("-follow needs -wal (the follower re-appends the primary's records to its own log)")
		}
		// First start with no local base: fetch the primary's current
		// snapshot before opening anything. Restarts skip this — the
		// local base + WAL resume, and the tailer re-bootstraps on its
		// own if the primary compacted past them.
		if _, err := os.Stat(banks.LatestSnapshotPath(*snapshot)); errors.Is(err, fs.ErrNotExist) {
			log.Printf("no local base; bootstrapping from %s", *follow)
			dest, pos, err := repl.FetchSnapshot(context.Background(), nil, *follow, *snapshot)
			if err != nil {
				return fmt.Errorf("bootstrap from %s: %w", *follow, err)
			}
			log.Printf("bootstrapped generation %d from %s into %s", pos.Generation, *follow, dest)
		}
	}

	// A restart after compactions must resume from the newest durable
	// base: open the highest <snapshot>.genN if any exist, and let the
	// WAL replay skip records the newer base already contains.
	openPath := *snapshot
	if *liveFlag && *snapshot != "" {
		if latest := banks.LatestSnapshotPath(*snapshot); latest != *snapshot {
			log.Printf("resuming from compacted generation %s", latest)
			openPath = latest
		}
	}
	db, desc, err := openOrBuild(openPath, *dataset, *factor)
	if err != nil {
		return err
	}
	defer db.Close()
	eng, err := banks.NewEngine(db, banks.EngineOptions{Workers: *parallel, CacheSize: *cacheSize})
	if err != nil {
		return err
	}

	var live *banks.Live
	if *liveFlag {
		mode, err := parsePrestigeMode(*livePrestige)
		if err != nil {
			return err
		}
		policy, err := banks.ParseWALFsyncPolicy(*walFsync)
		if err != nil {
			return err
		}
		wpath := *walPath
		if wpath == "" && *walFlag {
			if *snapshot == "" {
				return errors.New("-wal needs -snapshot to derive the log path (<snapshot>.wal); name one with -wal-path instead")
			}
			// The WAL path stays fixed across generations: compaction
			// truncates the log in place rather than rotating files.
			wpath = *snapshot + ".wal"
		}
		// Compaction needs somewhere to write generations; without
		// -snapshot, mutations still work but /v1/compact reports the
		// missing path.
		live, err = banks.OpenLive(eng, banks.LiveOptions{
			SnapshotPath: *snapshot,
			Prestige:     mode,
			WALPath:      wpath,
			WALFsync:     policy,
		})
		if err != nil {
			return err
		}
		defer live.Close()
		if wpath != "" {
			log.Printf("live mutations enabled (generation %d, prestige %s, wal %s fsync=%s, %d records replayed)",
				live.Generation(), *livePrestige, wpath, policy, live.Replayed())
		} else {
			log.Printf("live mutations enabled (generation %d, prestige %s)", live.Generation(), *livePrestige)
		}
	}

	var follower *repl.Follower
	if *follow != "" {
		follower, err = repl.StartFollower(repl.FollowerConfig{
			Primary:  *follow,
			Target:   live,
			BasePath: *snapshot,
			Logf:     log.Printf,
		})
		if err != nil {
			return err
		}
		defer follower.Close()
		log.Printf("following %s from generation %d, wal offset %d",
			*follow, live.Generation(), live.WALSize())
	}

	srv, err := server.New(server.Config{
		Engine:      eng,
		DB:          db,
		Live:        live,
		Tenants:     tenants,
		MaxInFlight: *maxInFlight,
		Logger:      log.Default(),
		Dataset:     desc,
		Follower:    follower,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	if live != nil && (*compactAfterOps > 0 || *compactAfterBytes > 0) {
		if *snapshot == "" {
			return errors.New("-compact-after-ops/-compact-after-bytes need -snapshot (compaction writes <snapshot>.genN)")
		}
		go autoCompact(ctx, live, *compactAfterOps, *compactAfterBytes)
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving %s on %s (pool=%d, max-inflight=%d)",
			desc, *addr, eng.Workers(), srv.MaxInFlight())
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: advertise unreadiness, give load balancers a
	// window to observe it before the listener closes, then let
	// in-flight requests finish and confirm the engine is idle.
	log.Printf("signal received, draining (grace %v, timeout %v)", *drainGrace, *drainTimeout)
	srv.BeginDrain()
	time.Sleep(*drainGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := eng.Quiesce(shutdownCtx); err != nil {
		return fmt.Errorf("drain: engine still busy: %w", err)
	}
	log.Printf("drained cleanly")
	return nil
}

// autoCompact folds the overlay into a new snapshot generation whenever
// it grows past a configured threshold: ops applied since the base
// (-compact-after-ops) or WAL size (-compact-after-bytes). Polling every
// second keeps the check off the mutation hot path. A failed compaction
// is logged and retried at the next poll; mutations keep flowing either
// way.
func autoCompact(ctx context.Context, live *banks.Live, maxOps uint64, maxBytes int64) {
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		var trigger string
		switch ops, size := live.Stats().OpsSinceBase, live.WALStats().SizeBytes; {
		case maxOps > 0 && ops >= maxOps:
			trigger = fmt.Sprintf("%d ops since base >= %d", ops, maxOps)
		case maxBytes > 0 && size >= maxBytes:
			trigger = fmt.Sprintf("wal at %d bytes >= %d", size, maxBytes)
		default:
			continue
		}
		res, err := live.Compact(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			log.Printf("auto-compaction (%s) failed: %v", trigger, err)
			continue
		}
		log.Printf("auto-compacted (%s): generation %d at %s", trigger, res.Generation, res.Path)
	}
}

// parsePrestigeMode maps the -live-prestige flag to a banks.PrestigeMode.
func parsePrestigeMode(name string) (banks.PrestigeMode, error) {
	switch name {
	case "random-walk":
		return banks.PrestigeRandomWalk, nil
	case "indegree":
		return banks.PrestigeIndegree, nil
	case "uniform":
		return banks.PrestigeUniform, nil
	}
	return 0, fmt.Errorf("unknown prestige mode %q (have random-walk, indegree, uniform)", name)
}

// openOrBuild serves the DB from a snapshot when one is requested and
// present; otherwise it builds from the generated dataset (and, with
// -snapshot set, saves the snapshot for the next start).
func openOrBuild(snapshot, dataset string, factor float64) (*banks.DB, string, error) {
	if snapshot != "" {
		switch _, err := os.Stat(snapshot); {
		case err == nil:
			start := time.Now()
			db, err := banks.OpenSnapshot(snapshot)
			if err != nil {
				return nil, "", err
			}
			log.Printf("opened snapshot %s in %v (zero-copy=%v)",
				snapshot, time.Since(start).Round(time.Microsecond), db.SnapshotZeroCopy())
			return db, fmt.Sprintf("snapshot %s", snapshot), nil
		case !errors.Is(err, fs.ErrNotExist):
			// Only a missing file means "build it": a permission or I/O
			// error must fail in milliseconds with the real diagnosis,
			// not after minutes of rebuilding a dataset that exists.
			return nil, "", fmt.Errorf("snapshot %s: %w", snapshot, err)
		}
	}
	db, err := buildDataset(dataset, factor)
	if err != nil {
		return nil, "", err
	}
	desc := fmt.Sprintf("%s factor %g", dataset, factor)
	if snapshot != "" {
		if err := db.WriteSnapshotFile(snapshot); err != nil {
			return nil, "", err
		}
		log.Printf("saved snapshot %s", snapshot)
		desc = fmt.Sprintf("snapshot %s", snapshot)
	}
	return db, desc, nil
}

func buildDataset(name string, factor float64) (*banks.DB, error) {
	var (
		ds  *datagen.Dataset
		err error
	)
	switch name {
	case "dblp":
		ds, err = datagen.DBLP(datagen.DefaultDBLP(factor))
	case "imdb":
		ds, err = datagen.IMDB(datagen.DefaultIMDB(factor))
	case "patents":
		ds, err = datagen.Patents(datagen.DefaultPatents(factor))
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
	if err != nil {
		return nil, err
	}
	return banks.Build(ds.DB, banks.BuildOptions{})
}
