package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// testDigest derives a well-formed content address from a label, so
// tests exercise the same digest shape production uses (spool lookups
// reject anything else).
func testDigest(label string) Digest {
	sum := sha256.Sum256([]byte(label))
	return Digest(hex.EncodeToString(sum[:]))
}

// ent wraps a result in a minimal cache entry.
func ent(result string) Entry {
	return Entry{Spec: json.RawMessage(`{}`), Result: json.RawMessage(result)}
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(2, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b, cc := testDigest("a"), testDigest("b"), testDigest("c")
	c.Put(a, ent(`1`))
	c.Put(b, ent(`2`))
	if _, ok := c.Get(a); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put(cc, ent(`3`))
	if _, ok := c.Get(b); ok {
		t.Fatal("b survived eviction; LRU order not respected")
	}
	for _, d := range []Digest{a, cc} {
		if _, ok := c.Get(d); !ok {
			t.Fatalf("%s evicted, want retained", d.Short())
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
}

func TestCacheSpoolRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := testDigest("a"), testDigest("b")
	c.Put(a, ent(`{"x":1}`))
	c.Put(b, ent(`{"x":2}`)) // evicts a from memory
	e, ok := c.Get(a)
	if !ok {
		t.Fatal("spool fallback failed after memory eviction")
	}
	if string(e.Result) != `{"x":1}` {
		t.Fatalf("spool returned %s", e.Result)
	}
	if st := c.Stats(); st.SpoolHits != 1 {
		t.Fatalf("spool hits = %d, want 1", st.SpoolHits)
	}

	// A fresh cache over the same spool dir sees the results: the spool
	// is a valid cache for any process because digests are content
	// addresses.
	c2, err := NewCache(4, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := c2.Get(b); !ok || string(e.Result) != `{"x":2}` {
		t.Fatalf("cross-process spool read: ok=%v res=%s", ok, e.Result)
	}
}

func TestCacheRejectsCorruptSpoolEntry(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range []string{
		"{torn",             // invalid JSON
		`[1,2,3]`,           // valid JSON, wrong shape
		`{"spec":{}}`,       // entry without a result
		`{"result":"{bad}}`, // truncated result string
	} {
		d := testDigest(fmt.Sprintf("corrupt-%d", i))
		if err := os.WriteFile(filepath.Join(dir, string(d)+".json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(d); ok {
			t.Fatalf("corrupt spool entry %q served as a result", body)
		}
	}
}

func TestCacheSpoolRequiresWellFormedDigest(t *testing.T) {
	// The spool lives in a subdirectory with a valid-JSON loot file next
	// to it; a digest smuggling path separators must not reach it.
	root := t.TempDir()
	spool := filepath.Join(root, "spool")
	c, err := NewCache(1, spool, nil)
	if err != nil {
		t.Fatal(err)
	}
	loot, _ := json.Marshal(ent(`"secret"`))
	if err := os.WriteFile(filepath.Join(root, "loot.json"), loot, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, d := range []Digest{
		"../loot",
		Digest("../" + testDigest("x")),
		"loot",
		Digest(testDigest("x")[:63]),          // too short
		Digest(string(testDigest("x")) + "a"), // too long
		Digest("A" + testDigest("x")[1:]),     // uppercase hex
	} {
		if _, ok := c.Get(d); ok {
			t.Fatalf("malformed digest %q read through the spool", d)
		}
	}
	// Malformed digests are never written to the spool either.
	c.Put("../loot2", ent(`1`))
	if _, err := os.Stat(filepath.Join(root, "loot2.json")); !os.IsNotExist(err) {
		t.Fatal("malformed digest escaped the spool directory on Put")
	}
}

func TestCacheSpoolFilesAreAtomic(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(2, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := testDigest("a")
	c.Put(a, ent(`[1,2,3]`))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != string(a)+".json" {
			t.Fatalf("unexpected spool residue %q (temp file not cleaned up?)", e.Name())
		}
	}
}

func TestCacheHitRatio(t *testing.T) {
	c, err := NewCache(8, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c.Put(testDigest(fmt.Sprintf("d%d", i)), ent(`0`))
	}
	c.Get(testDigest("d0"))
	c.Get(testDigest("d1"))
	c.Get(testDigest("missing"))
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", st.Hits, st.Misses)
	}
	if want := 2.0 / 3.0; st.HitRatio < want-1e-9 || st.HitRatio > want+1e-9 {
		t.Fatalf("hit ratio = %g, want %g", st.HitRatio, want)
	}
}

// TestCacheRejectsMisaddressedSpoolFile: a spool file copied onto
// another digest's name fails verification — its frame names the job it
// was written for — so it is quarantined and never served as the other
// job's result.
func TestCacheRejectsMisaddressedSpoolFile(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := testDigest("a"), testDigest("b")
	c.Put(a, ent(`{"x":1}`))
	data, err := os.ReadFile(filepath.Join(dir, string(a)+".json"))
	if err != nil {
		t.Fatal(err)
	}
	pathB := filepath.Join(dir, string(b)+".json")
	if err := os.WriteFile(pathB, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := NewCache(4, dir, nil) // nothing in memory: reads hit the spool
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := fresh.Get(b); ok {
		t.Fatalf("job a's spool file served as job b's result %s", e.Result)
	}
	if _, err := os.Stat(pathB + ".corrupt"); err != nil {
		t.Errorf("misaddressed file was not quarantined: %v", err)
	}
	if st := fresh.Stats(); st.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", st.Quarantined)
	}
	if e, ok := fresh.Get(a); !ok || string(e.Result) != `{"x":1}` {
		t.Fatalf("job a's own spool file: ok=%v result=%s", ok, e.Result)
	}
}
