package delta

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestReplayRules pins the idempotence table of the one replay entry
// point that crash recovery and replication share: stale versions and
// older generations are skipped, version holes and newer generations
// are refused, only the exactly-next version applies, and only applied
// records count as mutations. It runs once with a log attached — the
// follower's setting, where only applied records may append (appending
// a skip would fork the follower's offsets from the primary's) — and
// once with none — the recovery setting — where every outcome must be
// the same.
func TestReplayRules(t *testing.T) {
	cases := []struct {
		name      string
		gen, ver  uint64
		applied   bool
		errSubstr string // "" = no error
	}{
		{name: "replayed version is skipped, not re-appended", gen: 1, ver: 2},
		{name: "ancient version is skipped", gen: 1, ver: 1},
		{name: "older generation is skipped", gen: 0, ver: 3},
		{name: "version hole is refused", gen: 1, ver: 5, errSubstr: "a record is missing"},
		{name: "newer generation is refused", gen: 2, ver: 3, errSubstr: "ahead of base generation"},
		{name: "exactly-next version applies", gen: 1, ver: 3, applied: true},
	}
	for _, logged := range []bool{true, false} {
		name := "no log"
		if logged {
			name = "log"
		}
		t.Run(name, func(t *testing.T) {
			fl := &fakeLog{}
			var log LogAppender
			if logged {
				log = fl
			}
			m, _ := newManagerWorldLog(t, filepath.Join(t.TempDir(), "rules.banksnap"), log)
			// Generation 1 makes "older generation" reachable.
			if _, err := m.Compact(t.Context()); err != nil {
				t.Fatal(err)
			}
			ops := []Op{{Kind: OpInsertNode, Table: diffTables[0], Text: "replay rules probe"}}
			// Establish versions 1..2 as the current state.
			for v := uint64(1); v <= 2; v++ {
				if applied, _, err := m.Replay(1, v, ops); err != nil || !applied {
					t.Fatalf("seed v%d: applied=%v err=%v", v, applied, err)
				}
			}

			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					appendsBefore, before := len(fl.appended), m.Stats()
					applied, offset, err := m.Replay(tc.gen, tc.ver, ops)
					if tc.errSubstr != "" {
						if err == nil || !strings.Contains(err.Error(), tc.errSubstr) {
							t.Fatalf("err = %v, want substring %q", err, tc.errSubstr)
						}
					} else if err != nil {
						t.Fatal(err)
					}
					if applied != tc.applied {
						t.Fatalf("applied = %v, want %v", applied, tc.applied)
					}

					// Accounting: an applied record counts once, anything
					// else leaves every counter where it was.
					n := uint64(0)
					if tc.applied {
						n = 1
					}
					after := m.Stats()
					if after.DeltaVersion != before.DeltaVersion+n ||
						after.MutationBatches != before.MutationBatches+n ||
						after.MutationsTotal != before.MutationsTotal+n*uint64(len(ops)) ||
						after.OpsSinceBase != before.OpsSinceBase+n*uint64(len(ops)) {
						t.Fatalf("accounting moved %+v → %+v, want %d applied record(s)", before, after, n)
					}

					// Logging: only an applied record appends, and only
					// when a log is attached.
					wantAppends := 0
					if logged && tc.applied {
						wantAppends = 1
					}
					if got := len(fl.appended) - appendsBefore; got != wantAppends {
						t.Fatalf("appended %d record(s), want %d", got, wantAppends)
					}
					if wantAppends == 1 {
						if rec := fl.appended[len(fl.appended)-1]; rec != (fakeRecord{tc.gen, tc.ver, len(ops)}) {
							t.Fatalf("appended %+v, want the record's own stamp", rec)
						}
					}
					if (offset >= 0) != (wantAppends == 1) {
						t.Fatalf("offset = %d with %d append(s)", offset, wantAppends)
					}
				})
			}
		})
	}
}

// TestReplayOldGeneration pins that records from a generation the
// follower has already compacted past are skipped silently — the
// primary's log can briefly serve pre-compaction records during the
// re-bootstrap handshake, and applying them onto the newer base would
// double-apply mutations the base already contains.
func TestReplayOldGeneration(t *testing.T) {
	m, _ := newManagerWorld(t, t.TempDir()+"/seam.banksnap")
	ops := []Op{{Kind: OpInsertNode, Table: diffTables[0], Text: "oldgen probe"}}
	if applied, _, err := m.Replay(0, 1, ops); err != nil || !applied {
		t.Fatalf("seed: applied=%v err=%v", applied, err)
	}
	if _, err := m.Compact(t.Context()); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Generation != 1 {
		t.Fatalf("generation = %d, want 1", st.Generation)
	}
	applied, _, err := m.Replay(0, 2, ops)
	if err != nil || applied {
		t.Fatalf("old-generation replay: applied=%v err=%v, want silent skip", applied, err)
	}
	if got := m.Stats().DeltaVersion; got != 0 {
		t.Fatalf("delta version moved to %d on a skipped old-generation record", got)
	}
}
