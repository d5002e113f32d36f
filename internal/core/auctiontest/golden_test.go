package auctiontest

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dynacrowd/internal/core"
)

// golden reads kind k's version-1 checkpoint from testdata/. Each was
// written by the code that predates the shared core.Checkpoint, at slot
// cut of round(), by the same fresh builder and script as k.
func golden(t testing.TB, k kind) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", k.name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenCheckpoints: each golden checkpoint equals the one the
// current code writes for the same play, restores, re-snapshots
// byte-identically, and finishes the round exactly like the live
// auction it was taken from.
func TestGoldenCheckpoints(t *testing.T) {
	in := round(t)
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			data := golden(t, k)
			live, _ := k.playFresh(t, in, cut)
			if got := snapshot(t, live); !bytes.Equal(got, data) {
				t.Fatalf("the current code writes a different checkpoint:\n%s\n%s", data, got)
			}
			r, err := k.restore(data)
			if err != nil {
				t.Fatal(err)
			}
			if again := snapshot(t, r); !bytes.Equal(again, data) {
				t.Fatalf("re-snapshot differs:\n%s\n%s", data, again)
			}
			want, got := k.play(t, live, in, in.Slots), k.play(t, r, in, in.Slots)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("slot %d result %+v, live %+v", want[i].Slot, got[i], want[i])
				}
			}
			if !r.Done() || !reflect.DeepEqual(r.Outcome(), live.Outcome()) {
				t.Fatalf("finished round differs: Done %v\n got %+v\nwant %+v", r.Done(), r.Outcome(), live.Outcome())
			}
		})
	}
}

// maxFuzzSlots bounds the round length FuzzRestore restores. An m-slot
// auction holds O(m) per-slot state whether it is created or restored,
// so a mutated "slots" field could otherwise ask for gigabytes.
const maxFuzzSlots = 1 << 10

// FuzzRestore feeds raw bytes, seeded with the golden checkpoints, to
// both restore functions. Restore must error or return an auction whose
// snapshot restores to the same bytes, and the auction must play out
// its round; nothing may panic.
func FuzzRestore(f *testing.F) {
	for _, k := range kinds {
		f.Add(golden(f, k))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := core.DecodeCheckpoint(data); err == nil && c.Slots > maxFuzzSlots {
			t.Skip()
		}
		for _, restore := range []func([]byte) (core.Auction, error){restoreOnline, restoreBudget} {
			a, err := restore(data)
			if err != nil {
				continue
			}
			first := snapshot(t, a)
			again, err := restore(first)
			if err != nil {
				t.Fatalf("restore of a restored auction's snapshot: %v\n%s", err, first)
			}
			if second := snapshot(t, again); !bytes.Equal(first, second) {
				t.Fatalf("snapshot changed across restore:\n%s\n%s", first, second)
			}
			for !a.Done() {
				if _, err := a.Step(nil, 1); err != nil {
					t.Fatal(err)
				}
			}
			a.Outcome()
		}
	})
}
