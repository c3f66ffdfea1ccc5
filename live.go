package banks

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"banks/internal/delta"
	"banks/internal/graph"
	"banks/internal/prestige"
	"banks/internal/wal"
)

// Live-mutation types, aliased from internal/delta so callers only import
// this package.
type (
	// MutationOp is one mutation operation: a node/edge/term insert or
	// delete. See docs/MUTATIONS.md for per-kind field requirements and
	// semantics.
	MutationOp = delta.Op
	// MutationKind discriminates MutationOp.
	MutationKind = delta.OpKind
	// LiveStats is a point-in-time snapshot of live-mutation state:
	// generation, delta sizes, and mutation/compaction counters.
	LiveStats = delta.Stats
	// ApplyResult reports one acknowledged mutation batch: assigned
	// NodeIDs, the (generation, delta_version) it produced — the
	// read-your-writes token — and its WAL offset (-1 without a WAL).
	ApplyResult = delta.ApplyResult
	// CompactResult reports one completed compaction: the new generation,
	// its snapshot path, and whether the WAL was truncated.
	CompactResult = delta.CompactResult
	// WALError marks a mutation batch that was valid but could not be
	// made durable; it was not applied.
	WALError = delta.WALError
	// WALStats samples the write-ahead log's position and activity.
	WALStats = wal.Stats
	// WALFsyncPolicy selects when the write-ahead log fsyncs:
	// WALFsyncAlways, WALFsyncInterval, or WALFsyncNever.
	WALFsyncPolicy = wal.Policy
)

// Write-ahead-log fsync policies (see docs/MUTATIONS.md for the ack
// guarantee each one buys).
const (
	WALFsyncAlways   = wal.PolicyAlways
	WALFsyncInterval = wal.PolicyInterval
	WALFsyncNever    = wal.PolicyNever
)

// ParseWALFsyncPolicy parses a policy name ("always", "interval",
// "never") — the banksd -wal-fsync flag values — into a WALFsyncPolicy.
func ParseWALFsyncPolicy(s string) (WALFsyncPolicy, error) {
	return wal.ParsePolicy(s)
}

// Mutation operation kinds.
const (
	OpInsertNode = delta.OpInsertNode
	OpInsertEdge = delta.OpInsertEdge
	OpDeleteNode = delta.OpDeleteNode
	OpDeleteEdge = delta.OpDeleteEdge
	OpInsertTerm = delta.OpInsertTerm
	OpDeleteTerm = delta.OpDeleteTerm
)

// LiveOptions configures OpenLive.
type LiveOptions struct {
	// SnapshotPath, when non-empty, enables compaction: generation N is
	// written to SnapshotPath + ".genN" (temp file + atomic rename) and
	// hot-swapped in as the new base. Empty disables Compact.
	SnapshotPath string
	// Prestige must match how the base DB's prestige was computed; the
	// overlay recomputes prestige over the mutated graph in the same mode
	// so scores stay consistent with a from-scratch build.
	Prestige PrestigeMode
	// PrestigeOptions tunes the random-walk mode (ignored otherwise).
	PrestigeOptions PrestigeOptions

	// WALPath, when non-empty, enables the write-ahead log: every batch
	// is appended (and, per WALFsync, fsync'd) there before Apply
	// acknowledges it, and OpenLive replays any records found at the
	// path — crash recovery. The conventional path is SnapshotPath +
	// ".wal" (what banksd -wal uses).
	WALPath string
	// WALFsync is the log's fsync policy (empty means WALFsyncAlways).
	WALFsync WALFsyncPolicy
	// WALFsyncInterval is the WALFsyncInterval group-commit window
	// (0 means the wal package default, 100ms).
	WALFsyncInterval time.Duration
}

// PrestigeOptions re-exports the random-walk tuning knobs (the same type
// BuildOptions.PrestigeOptions takes).
type PrestigeOptions = prestige.Options

// Live turns an Engine into a mutable serving instance: mutation batches
// apply to an in-memory delta overlay on the immutable base and become
// visible to queries atomically (each in-flight query keeps the exact
// state it started with), and Compact folds the overlay into a new
// snapshot generation on disk, hot-swapping it in with zero dropped
// queries. With a write-ahead log configured, Apply's acknowledgment
// additionally means the batch is durable per the fsync policy and will
// survive a crash and restart.
//
// All mutating entry points serialize internally; queries never block on
// them. The Engine's result cache is keyed by (generation, delta version),
// so mutations invalidate exactly the stale entries.
type Live struct {
	e *Engine
	m *delta.Manager
	w *wal.Log // nil without a WAL
	// baseNodes is the node count of the process-initial base. The DB's
	// row mapping covers exactly those nodes; nodes appended later get
	// synthetic labels even after a compaction folds them into the base.
	// Atomic because a replication follower overrides it with the
	// primary's value (SetBaseNodes) while queries render labels.
	baseNodes atomic.Int64
	// replayed is how many WAL records OpenLive recovered.
	replayed int
}

// OpenLive enables live mutations on an Engine. The engine's queries are
// redirected through the mutation overlay from this point on (at zero
// overlay cost until the first mutation). The DB backing the engine must
// not be Closed while Live is in use; compacted generations are managed
// internally.
//
// When LiveOptions.WALPath names an existing write-ahead log, OpenLive
// replays it: records stamped with the base's generation rebuild the
// overlay batch by batch (stale records from before the base snapshot
// are skipped; a log that is ahead of the snapshot, or has a hole, is
// refused). A torn final record — a crash mid-append — is discarded, it
// was never acknowledged.
func OpenLive(e *Engine, opts LiveOptions) (*Live, error) {
	if e == nil {
		return nil, errors.New("banks: OpenLive requires an engine")
	}
	d := e.db
	var generation uint64
	if d.snap != nil {
		generation = d.snap.Generation
	}
	mode := delta.PrestigeRandomWalk
	switch opts.Prestige {
	case PrestigeIndegree:
		mode = delta.PrestigeIndegree
	case PrestigeUniform:
		mode = delta.PrestigeUniform
	}

	var (
		log  *wal.Log
		recs []wal.Record
		err  error
	)
	if opts.WALPath != "" {
		log, recs, err = wal.Open(opts.WALPath, wal.Options{
			Policy:   opts.WALFsync,
			Interval: opts.WALFsyncInterval,
		})
		if err != nil {
			return nil, fmt.Errorf("banks: open WAL: %w", err)
		}
	}

	m, err := delta.NewManager(delta.Config{
		Engine:          e.e,
		Graph:           d.Graph,
		Index:           d.Index,
		Mapping:         d.Mapping,
		EdgeTypes:       d.EdgeTypes,
		Generation:      generation,
		SnapshotPath:    opts.SnapshotPath,
		Mode:            mode,
		PrestigeOptions: opts.PrestigeOptions,
	})
	if err != nil {
		if log != nil {
			log.Close()
		}
		return nil, err
	}
	l := &Live{e: e, m: m, w: log}
	l.baseNodes.Store(int64(d.Graph.NumNodes()))
	// The recovered records are already in the log: replay them before
	// the log is attached, so none is appended twice.
	for _, rec := range recs {
		applied, _, err := m.Replay(rec.Generation, rec.Version, rec.Ops)
		if err != nil {
			log.Close()
			return nil, fmt.Errorf("banks: WAL replay: %w", err)
		}
		if applied {
			l.replayed++
		}
	}
	if log != nil {
		m.SetLog(log)
	}
	return l, nil
}

// Apply validates and applies one mutation batch atomically: either every
// op is applied and visible to all queries arriving afterwards, or none
// is and the error names the offending op. With a WAL configured the
// batch is durable (per the fsync policy) before Apply returns; a
// *WALError means the batch was valid but could not be made durable and
// was NOT applied. The result carries the assigned NodeIDs and the
// read-your-writes (generation, delta_version, wal_offset) tokens.
func (l *Live) Apply(ops []MutationOp) (*ApplyResult, error) {
	return l.m.Apply(ops)
}

// Compact folds the current overlay into a snapshot file of the next
// generation and hot-swaps it in as the new base without dropping
// in-flight queries. Once the new generation is durable on disk the
// write-ahead log is truncated — its records are redundant with the
// snapshot.
func (l *Live) Compact(ctx context.Context) (*CompactResult, error) {
	return l.m.Compact(ctx)
}

// Stats samples the live-mutation state.
func (l *Live) Stats() LiveStats { return l.m.Stats() }

// WALStats samples the write-ahead log (zero value when no WAL is
// configured; check HasWAL).
func (l *Live) WALStats() WALStats {
	if l.w == nil {
		return WALStats{}
	}
	return l.w.Stats()
}

// HasWAL reports whether a write-ahead log is configured.
func (l *Live) HasWAL() bool { return l.w != nil }

// Replayed returns how many WAL records OpenLive recovered into the
// overlay.
func (l *Live) Replayed() int { return l.replayed }

// Close releases live-mutation resources (today: syncs and closes the
// WAL). The Engine and DB stay usable; Close is not required when the
// process is exiting anyway.
func (l *Live) Close() error {
	if l.w == nil {
		return nil
	}
	return l.w.Close()
}

// Generation returns the current base snapshot generation.
func (l *Live) Generation() uint64 { return l.m.Stats().Generation }

// DeltaVersion returns the number of mutation batches applied onto the
// current base — with Generation, the logical position replication lag
// is measured against.
func (l *Live) DeltaVersion() uint64 { return l.m.Stats().DeltaVersion }

// BasePath returns the snapshot file backing the current base (the
// newest compacted generation, or the process-initial snapshot). Empty
// when no snapshot path is configured — such an instance cannot
// bootstrap replication followers.
func (l *Live) BasePath() string { return l.m.BasePath() }

// BaseNodes returns the node count that splits mapped row labels from
// synthetic "+k" labels (see NodeLabel).
func (l *Live) BaseNodes() int { return int(l.baseNodes.Load()) }

// SetBaseNodes overrides the label split point. A replication follower
// adopts its primary's value so both render byte-identical labels even
// when the follower bootstrapped from a compacted snapshot whose node
// count already includes appended nodes.
func (l *Live) SetBaseNodes(n int) { l.baseNodes.Store(int64(n)) }

// WALSize returns the write-ahead log's current end offset (0 without
// a WAL). For a primary this is the replication position followers
// chase; for a follower it is the position already applied locally.
func (l *Live) WALSize() int64 {
	if l.w == nil {
		return 0
	}
	return l.w.Size()
}

// WALChanged returns a channel closed at the log's next append or
// reset (nil without a WAL) — the replication publisher's long-poll
// hook. Grab the channel, then check WALSize, then wait.
func (l *Live) WALChanged() <-chan struct{} {
	if l.w == nil {
		return nil
	}
	return l.w.Changed()
}

// WALReadAt serves whole log frames from the given offset (the
// replication wire payload). See wal.Log.ReadAt for the contract.
func (l *Live) WALReadAt(from int64, max int) ([]byte, int64, error) {
	if l.w == nil {
		return nil, 0, errors.New("banks: no write-ahead log configured")
	}
	return l.w.ReadAt(from, max)
}

// Replay applies one replicated record under the WAL replay idempotence
// rules and appends it to the local log when it applies, keeping the
// follower's log byte-identical to the primary's. See
// delta.Manager.Replay.
func (l *Live) Replay(generation, version uint64, ops []MutationOp) (applied bool, offset int64, err error) {
	return l.m.Replay(generation, version, ops)
}

// AdoptSnapshot hot-swaps an externally fetched snapshot in as the new
// base (a follower crossing its primary's compaction), truncating the
// local WAL. Returns the adopted generation.
func (l *Live) AdoptSnapshot(ctx context.Context, path string) (uint64, error) {
	return l.m.AdoptBase(ctx, path)
}

// LatestSnapshotPath resolves the newest snapshot generation for a base
// path: the highest path+".genN" compaction output if any exists, else
// the base path itself. Restarting servers open this so recovery
// resumes from the newest durable base (the WAL's stale records are
// skipped by generation).
func LatestSnapshotPath(path string) string {
	matches, err := filepath.Glob(path + ".gen*")
	if err != nil || len(matches) == 0 {
		return path
	}
	best, bestGen := path, uint64(0)
	for _, m := range matches {
		suffix := strings.TrimPrefix(m, path+".gen")
		gen, err := strconv.ParseUint(suffix, 10, 64)
		if err != nil {
			continue
		}
		if gen > bestGen {
			best, bestGen = m, gen
		}
	}
	return best
}

// NodeLabel renders a node for display, replacing DB.NodeLabel for
// mutable instances: nodes of the process-initial base keep their
// "table[row]" labels from the row mapping, nodes inserted at runtime —
// which have no source row — are labeled "table[+k]" by insertion order.
// Tombstoned nodes are labeled as deleted.
func (l *Live) NodeLabel(u NodeID) string {
	v := l.m.View()
	if int(u) >= v.NumNodes() {
		return fmt.Sprintf("node[%d]", u)
	}
	if v.Deleted(u) {
		return fmt.Sprintf("%s[deleted %d]", v.Table(u), u)
	}
	base := int(l.baseNodes.Load())
	if int(u) < base {
		return l.e.db.NodeLabel(u)
	}
	return fmt.Sprintf("%s[+%d]", v.Table(u), int(u)-base)
}

// Explain renders an answer tree like DB.Explain, routing labels through
// the overlay so answers containing runtime-inserted nodes render instead
// of faulting on the row mapping.
func (l *Live) Explain(a *Answer) string {
	return explainTree(l.NodeLabel, a)
}

// EdgeTypeName resolves an edge-type ID to its schema name ("" for the
// generic type 0 and for IDs the base schema does not define).
func (l *Live) EdgeTypeName(t graph.EdgeType) string {
	if l.e.db.EdgeTypes == nil {
		return ""
	}
	return l.e.db.EdgeTypes.Name(t)
}

// Generation returns the snapshot generation of a snapshot-backed DB
// (0 for built DBs and for snapshot files that predate generations).
func (d *DB) Generation() uint64 {
	if d.snap == nil {
		return 0
	}
	return d.snap.Generation
}
