package crashtest

import (
	"os"
	"testing"
)

// TestMain routes the re-exec'd child into the workload before the test
// framework parses anything: the child is this very test binary.
func TestMain(m *testing.M) {
	if IsChild() {
		ChildMain() // os.Exits
	}
	os.Exit(m.Run())
}

// TestCrashRecoverySmoke runs the kill matrix short: every site at the first
// two visits. make race-core runs this under -race; cmd/crash soaks the same
// harness at depth.
func TestCrashRecoverySmoke(t *testing.T) {
	res, err := Run(Options{
		Dir:       t.TempDir(),
		Mutations: 30,
		Seed:      42,
	})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("durability violation: %s", v)
	}
	if res.Kills == 0 {
		t.Fatalf("no trial killed the child; the injection hook is not firing (clean exits: %d)", res.CleanExits)
	}
	if res.Kills+res.CleanExits != res.Trials {
		t.Fatalf("trials=%d but kills=%d clean=%d", res.Trials, res.Kills, res.CleanExits)
	}
	t.Logf("trials=%d kills=%d clean=%d acked=%d recovered=%d torn=%d truncated=%dB snapshots=%d",
		res.Trials, res.Kills, res.CleanExits, res.AckedTotal, res.RecoveredTotal,
		res.TornTails, res.TruncatedBytes, res.Snapshots)
}

// TestComposedStorageFaultCrashes runs the kill × storage-fault composition:
// the child crashes while degraded read-only, inside the reopen probe, and
// inside a scrubber quarantine (ComposedTrials, which cmd/crash also runs).
// The same four recovery invariants must hold — a crash in the fault
// machinery is still just a crash.
func TestComposedStorageFaultCrashes(t *testing.T) {
	res, err := Run(Options{
		Dir:       t.TempDir(),
		Mutations: 30,
		Seed:      42,
		Trials:    ComposedTrials(),
	})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("durability violation: %s", v)
	}
	if res.Kills != res.Trials {
		t.Fatalf("kills=%d trials=%d: a composed child survived its scenario (clean exits: %d)",
			res.Kills, res.Trials, res.CleanExits)
	}
}

// TestStreamIsDeterministic pins the property every invariant rests on: the
// child and the oracle must derive identical mutation streams.
func TestStreamIsDeterministic(t *testing.T) {
	a, b := Stream(7, 100), Stream(7, 100)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Op != b[i].Op || a[i].Item.ID != b[i].Item.ID || !a[i].Item.Point.Equal(b[i].Item.Point) {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if c := Stream(8, 100); len(c) == len(a) {
		same := true
		for i := range c {
			if c[i].Item.ID != a[i].Item.ID || c[i].Op != a[i].Op {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical streams")
		}
	}
}

// TestReplayMatchesLiveApplication replays a full stream and checks it
// against a step-by-step application, including that deletes always target
// live items (the stream must never generate an invalid mutation).
func TestReplayMatchesLiveApplication(t *testing.T) {
	base := BaseItems(3)
	stream := Stream(3, 200)
	byID := make(map[int]struct{}, len(base))
	for _, it := range base {
		byID[it.ID] = struct{}{}
	}
	for i, m := range stream {
		if m.Op == OpInsert {
			if _, dup := byID[m.Item.ID]; dup {
				t.Fatalf("mutation %d inserts duplicate ID %d", i, m.Item.ID)
			}
			byID[m.Item.ID] = struct{}{}
		} else {
			if _, ok := byID[m.Item.ID]; !ok {
				t.Fatalf("mutation %d deletes absent ID %d", i, m.Item.ID)
			}
			delete(byID, m.Item.ID)
		}
	}
	want := Replay(base, stream)
	if len(want) != len(byID) {
		t.Fatalf("Replay yields %d items, live application %d", len(want), len(byID))
	}
	for _, it := range want {
		if _, ok := byID[it.ID]; !ok {
			t.Fatalf("Replay kept ID %d the live application dropped", it.ID)
		}
	}
}
