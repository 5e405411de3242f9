package serve

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve/fsio"
)

// storeCase is one of the scheduler's two file-store instances.
type storeCase struct {
	name  string
	dir   string // directory under the test root
	ext   string
	code  uint32 // storage-degraded store code
	store func(s *Scheduler) *fileStore
}

var storeCases = []storeCase{
	{"spool", "spool", ".json", obs.StoreSpool, func(s *Scheduler) *fileStore { return s.cache.spool }},
	{"checkpoints", "ckpt", ".ckpt.json", obs.StoreCheckpoint, func(s *Scheduler) *fileStore { return s.ckpt }},
}

// storeScheduler builds a scheduler with both stores enabled over a
// fault-injecting filesystem.
func storeScheduler(t *testing.T, root string) (*Scheduler, *fsio.Faulty, *obs.Memory) {
	t.Helper()
	ffs := fsio.NewFaulty(nil)
	events := obs.NewMemory()
	s, err := NewScheduler(Config{
		Shards:        1,
		SpoolDir:      filepath.Join(root, "spool"),
		CheckpointDir: filepath.Join(root, "ckpt"),
		FS:            ffs,
		ServiceEvents: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s, ffs, events
}

// TestFileStoreFailurePolicy runs the one corruption and degrade policy
// over both store instances: a damaged, truncated or misaddressed file is
// quarantined and never returned, a malformed digest never becomes a
// path, and a streak of three write failures — not two broken by a
// success — switches the store off with exactly one storage-degraded
// event.
func TestFileStoreFailurePolicy(t *testing.T) {
	a, b := testDigest("store-a"), testDigest("store-b")
	payload := []byte(`{"trial":7,"note":"<&>"}`)

	// damage tampers with a's stored file and returns the digest whose
	// read must now miss and quarantine.
	type attack struct {
		name   string
		damage func(t *testing.T, root string, c storeCase) Digest
	}
	fileOf := func(root string, c storeCase, d Digest) string {
		return filepath.Join(root, c.dir, string(d)+c.ext)
	}
	rewrite := func(t *testing.T, path string, edit func([]byte) []byte) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, edit(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	attacks := []attack{
		{"corrupt body", func(t *testing.T, root string, c storeCase) Digest {
			rewrite(t, fileOf(root, c, a), func(d []byte) []byte {
				return []byte(strings.Replace(string(d), `"trial":7`, `"trial":8`, 1))
			})
			return a
		}},
		{"truncated body", func(t *testing.T, root string, c storeCase) Digest {
			rewrite(t, fileOf(root, c, a), func(d []byte) []byte { return d[:len(d)/2] })
			return a
		}},
		{"id mismatch", func(t *testing.T, root string, c storeCase) Digest {
			data, err := os.ReadFile(fileOf(root, c, a))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(fileOf(root, c, b), data, 0o644); err != nil {
				t.Fatal(err)
			}
			return b
		}},
	}

	for _, c := range storeCases {
		t.Run(c.name, func(t *testing.T) {
			for _, at := range attacks {
				t.Run(at.name, func(t *testing.T) {
					root := t.TempDir()
					s, _, _ := storeScheduler(t, root)
					st := c.store(s)
					if !st.put(a, payload) {
						t.Fatal("put failed on a healthy store")
					}
					if got, ok := st.get(a); !ok || string(got) != string(payload) {
						t.Fatalf("round trip: ok=%v data=%s", ok, got)
					}
					victim := at.damage(t, root, c)
					if got, ok := st.get(victim); ok {
						t.Fatalf("damaged file served: %s", got)
					}
					path := fileOf(root, c, victim)
					if _, err := os.Stat(path + ".corrupt"); err != nil {
						t.Errorf("damaged file not quarantined: %v", err)
					}
					if _, err := os.Stat(path); !os.IsNotExist(err) {
						t.Errorf("damaged file still at its path: %v", err)
					}
					if _, ok := st.get(victim); ok {
						t.Fatal("quarantined file served on re-read")
					}
					if q := st.Stats().Quarantined; q != 1 {
						t.Errorf("quarantined = %d, want 1", q)
					}
				})
			}

			t.Run("traversal digest", func(t *testing.T) {
				root := t.TempDir()
				s, _, _ := storeScheduler(t, root)
				st := c.store(s)
				// A well-framed loot file one level above the store: only a
				// path built from an unchecked digest could reach it.
				loot := Digest("../loot")
				if err := os.WriteFile(filepath.Join(root, "loot"+c.ext), encodeFrame(loot, payload), 0o644); err != nil {
					t.Fatal(err)
				}
				for _, d := range []Digest{loot, Digest("../" + a), Digest(a[:63]), Digest(string(a) + "0"), Digest("A" + a[1:])} {
					if _, ok := st.get(d); ok {
						t.Fatalf("malformed digest %q read through the store", d)
					}
					if st.put(d, payload) {
						t.Fatalf("malformed digest %q written", d)
					}
				}
				if _, err := os.Stat(filepath.Join(root, "loot"+c.ext)); err != nil {
					t.Fatalf("loot file touched: %v", err)
				}
				entries, err := os.ReadDir(filepath.Join(root, c.dir))
				if err != nil {
					t.Fatal(err)
				}
				if len(entries) != 0 {
					t.Fatalf("store holds %d files after malformed writes, want 0", len(entries))
				}
			})

			t.Run("three-strike degrade", func(t *testing.T) {
				root := t.TempDir()
				s, ffs, events := storeScheduler(t, root)
				st := c.store(s)
				fault := func(count int) *fsio.Fault {
					ffs.Clear()
					return ffs.Inject(&fsio.Fault{Op: fsio.OpWrite, Path: c.dir, Err: syscall.ENOSPC, Count: count})
				}
				fault(2)
				for i := 0; i < 2; i++ {
					if st.put(a, payload) {
						t.Fatal("put reported success under ENOSPC")
					}
				}
				if !st.put(a, payload) { // the fault is spent: success resets the streak
					t.Fatal("put failed after the fault cleared")
				}
				f := fault(0)
				for i := 0; i < 2; i++ {
					st.put(a, payload)
				}
				if st.Degraded() || degradeEvents(events, c.code) != 0 {
					t.Fatal("degraded after two consecutive failures; a success must reset the streak")
				}
				st.put(a, payload)
				if !st.Degraded() {
					t.Fatal("not degraded after three consecutive failures")
				}
				hits := ffs.Hits(f)
				for i := 0; i < 3; i++ {
					st.put(a, payload)
				}
				if ffs.Hits(f) != hits {
					t.Error("a degraded store still writes")
				}
				if _, ok := st.get(a); ok {
					t.Error("a degraded store still reads")
				}
				if n := degradeEvents(events, c.code); n != 1 {
					t.Errorf("got %d storage-degraded events for store %d, want exactly 1", n, c.code)
				}
				if h := s.Health(); h.Status != "degraded" {
					t.Errorf("health status %q, want degraded", h.Status)
				}
			})
		})
	}
}
