// Command banksrouter is the scatter-gather front end over a sharded
// BANKS deployment: it fans each query out to N shard replica groups
// (banksd processes serving the shard files written by cmd/datagen
// -shards) and merges their top-k streams into the global top-k,
// bit-identical to a single-node server over the unsharded snapshot.
// Each shard may be served by several interchangeable replicas: the
// router picks one per query by health- and load-driven selection and
// fails over to the others when it dies, so 502 means "every replica of
// some shard is down", not "a process crashed". See docs/SERVING.md,
// "Sharded deployment".
//
// Usage (pick exactly one topology source):
//
//	banksrouter -shard 0=http://10.0.0.1:8081,http://10.0.0.2:8081 \
//	            -shard 1=http://10.0.0.1:8082,http://10.0.0.2:8082 ...
//	banksrouter -topology topology.json ...
//
// plus [-addr :8080] [-probe-interval 5s] [-hedge-after 0]
// [-drain-grace 1s] [-drain-timeout 15s].
//
// -shard is repeatable with an explicit shard index and comma-separated
// replica URLs; -topology names a JSON file of the form
// {"shards": [["urlA","urlB"], ["urlC"]]}. Index i must serve
// shard i of N (the router's /statusz flags backends whose own shard
// claim contradicts their slot). On SIGTERM or SIGINT the router drains
// gracefully, mirroring banksd: /healthz flips to 503, listeners close,
// in-flight fan-outs run to completion (bounded by -drain-timeout), and
// the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"banks/internal/router"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("banksrouter: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	var shardSpecs []string
	flag.Func("shard", "repeatable shard spec <index>=<url>[,<url>...] listing one shard's replicas", func(v string) error {
		shardSpecs = append(shardSpecs, v)
		return nil
	})
	topologyPath := flag.String("topology", "", "JSON topology file: {\"shards\": [[\"urlA\",\"urlB\"], ...]}")
	probeInterval := flag.Duration("probe-interval", 5*time.Second, "replica health-probe period (negative disables probing)")
	hedgeAfter := flag.Duration("hedge-after", 0, "hedge a slow replica by also querying its runner-up after this delay (0 disables hedging)")
	maxLag := flag.Int64("max-lag", 0, "demote a replication follower behind its primary by more than this many WAL records until it catches up (0 = default 256, negative disables; see docs/REPLICATION.md)")
	drainGrace := flag.Duration("drain-grace", time.Second, "window between /healthz turning 503 and the listener closing, so load balancers can observe unreadiness and stop routing (0 for tests)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long graceful shutdown waits for in-flight requests")
	flag.Parse()

	topology, err := resolveTopology(shardSpecs, *topologyPath)
	if err != nil {
		return err
	}

	rt, err := router.New(router.Config{
		Shards:        topology,
		ProbeInterval: *probeInterval,
		HedgeAfter:    *hedgeAfter,
		MaxLagRecords: *maxLag,
		Logger:        log.Default(),
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("routing %d shards (%d replicas) on %s", rt.NumShards(), rt.NumReplicas(), *addr)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	log.Printf("signal received, draining (grace %v, timeout %v)", *drainGrace, *drainTimeout)
	rt.BeginDrain()
	time.Sleep(*drainGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Printf("drained cleanly")
	return nil
}

// resolveTopology builds the shard→replicas table from exactly one of
// the two topology flags.
func resolveTopology(shardSpecs []string, topologyPath string) ([][]string, error) {
	switch {
	case len(shardSpecs) > 0 && topologyPath != "":
		return nil, errors.New("-shard and -topology are mutually exclusive; pick one")
	case topologyPath != "":
		return router.LoadTopologyFile(topologyPath)
	case len(shardSpecs) > 0:
		return router.ParseShardSpecs(shardSpecs)
	}
	return nil, errors.New("a topology is required: repeated -shard, or -topology")
}
