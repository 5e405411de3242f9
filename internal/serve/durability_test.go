package serve

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve/fsio"
)

// degradeEvents filters a memory sink down to storage-degraded events
// for one store code.
func degradeEvents(m *obs.Memory, store uint32) int {
	n := 0
	for _, e := range m.Events() {
		if e.Kind == obs.KindStorageDegraded && e.Aux == store {
			n++
		}
	}
	return n
}

// TestDrainRacingSpoolENOSPC is the graceful-drain-vs-disk-fault race:
// SIGTERM arrives while the spool is returning ENOSPC. The drain must
// still finish every in-flight job (results served from memory), the
// spool must hold no partial entry, the cache must degrade to
// memory-only with a storage-degraded event, and Drain must return nil —
// a full disk is a degradation, not a loss.
func TestDrainRacingSpoolENOSPC(t *testing.T) {
	dir := t.TempDir()
	spool := filepath.Join(dir, "spool")
	ffs := fsio.NewFaulty(nil)
	events := obs.NewMemory()
	release := make(chan struct{})
	s, err := NewScheduler(Config{
		Shards:        1,
		QueueDepth:    8,
		CacheEntries:  8,
		SpoolDir:      spool,
		JournalPath:   filepath.Join(dir, "wal"),
		FS:            ffs,
		ServiceEvents: events,
		Runner: func(ctx context.Context, spec *JobSpec, _ ExecOptions) (json.RawMessage, error) {
			select {
			case <-release:
				return json.RawMessage(`{"ok":true}`), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The disk fills after startup: every spool write from now on fails.
	ffs.Inject(&fsio.Fault{Op: fsio.OpWrite, Path: "spool", Err: syscall.ENOSPC})

	var jobs []*Job
	for seed := int64(1); seed <= 4; seed++ {
		j, _, err := s.Submit(sweepSpec(t, seed))
		if err != nil {
			t.Fatalf("submit %d: %v", seed, err)
		}
		jobs = append(jobs, j)
	}

	drainErr := make(chan error, 1)
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() { drainErr <- s.Drain(dctx) }()
	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("drain under ENOSPC reported loss: %v", err)
	}

	for _, j := range jobs {
		st := j.Status()
		if st.State != StateDone {
			t.Fatalf("job %s ended %s (%s); in-flight work must finish during drain", st.ID.Short(), st.State, st.Error)
		}
		if len(st.Result) == 0 {
			t.Fatalf("job %s done without result", st.ID.Short())
		}
	}

	// No partial entry may be visible in the spool: the atomic write path
	// must clean up after itself even under ENOSPC.
	entries, err := os.ReadDir(spool)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".json") || strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("spool holds %s after failed writes; partial entries must never persist", e.Name())
		}
	}

	if !s.Cache().Degraded() {
		t.Error("cache did not degrade to memory-only after persistent ENOSPC")
	}
	if n := degradeEvents(events, obs.StoreSpool); n != 1 {
		t.Errorf("got %d spool storage-degraded events, want exactly 1", n)
	}
	if st := s.Stats(); st.Cache.SpoolFails < storeDegradeAfter {
		t.Errorf("spool_fails = %d, want >= %d", st.Cache.SpoolFails, storeDegradeAfter)
	}
}

// TestSpoolCorruptionQuarantinedNeverServed: a spool file that fails its
// CRC is renamed aside and reported as a miss — under no circumstances
// is corrupt JSON served as a cached result.
func TestSpoolCorruptionQuarantinedNeverServed(t *testing.T) {
	spool := t.TempDir()
	spec := sweepSpec(t, 3)
	canonical, digest, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	c1, err := NewCache(4, spool, nil)
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(digest, Entry{Spec: canonical, Result: json.RawMessage(`{"v":1}`)})

	// Bit rot: damage the persisted result in place.
	path := filepath.Join(spool, string(digest)+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := []byte(strings.Replace(string(data), `{"v":1}`, `{"v":2}`, 1))
	if string(corrupted) == string(data) {
		t.Fatal("corruption did not take")
	}
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCache(4, spool, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(digest); ok {
		t.Fatal("corrupt spool entry was served")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt file was not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt file still at its spool path: %v", err)
	}
	if st := c2.Stats(); st.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", st.Quarantined)
	}
	// A second read must stay a miss, not resurrect the quarantined file.
	if _, ok := c2.Get(digest); ok {
		t.Fatal("quarantined entry served on re-read")
	}
}

// TestJournalDegradeKeepsServing: a journal whose writes fail flips to
// memory-only with one storage-degraded event; job execution and results
// are unaffected — only durability is lost.
func TestJournalDegradeKeepsServing(t *testing.T) {
	dir := t.TempDir()
	ffs := fsio.NewFaulty(nil)
	events := obs.NewMemory()
	s, err := NewScheduler(Config{
		Shards:        1,
		QueueDepth:    4,
		CacheEntries:  4,
		JournalPath:   filepath.Join(dir, "journal.wal"),
		FS:            ffs,
		ServiceEvents: events,
		Runner: func(context.Context, *JobSpec, ExecOptions) (json.RawMessage, error) {
			return json.RawMessage(`{"ok":true}`), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	ffs.Inject(&fsio.Fault{Op: fsio.OpWrite, Path: "journal.wal", Err: syscall.EIO})

	j, _, err := s.Submit(sweepSpec(t, 9))
	if err != nil {
		t.Fatalf("submit with sick journal: %v", err)
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("job did not finish")
	}
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if n := degradeEvents(events, obs.StoreJournal); n != 1 {
		t.Errorf("got %d journal storage-degraded events, want exactly 1", n)
	}
	if st := s.Stats(); !st.Durability.JournalDegraded {
		t.Error("stats do not report the degraded journal")
	}
}

// TestSchedulerRecoversJournaledJobs is the in-process half of the crash
// harness: jobs interrupted by shutdown keep their pending journal
// records, and the next scheduler on the same state replays them to
// completion, marked as recovered.
func TestSchedulerRecoversJournaledJobs(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Shards:       2,
		QueueDepth:   8,
		CacheEntries: 8,
		SpoolDir:     filepath.Join(dir, "spool"),
		JournalPath:  filepath.Join(dir, "spool", "journal.wal"),
	}

	blocked := cfg
	blocked.Runner = func(ctx context.Context, _ *JobSpec, _ ExecOptions) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	s1, err := NewScheduler(blocked)
	if err != nil {
		t.Fatal(err)
	}
	var ids []Digest
	for seed := int64(1); seed <= 3; seed++ {
		j, _, err := s1.Submit(sweepSpec(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.Digest())
	}
	s1.Stop() // shutdown cancellation: jobs fail locally but stay journaled

	quick := cfg
	quick.Runner = func(context.Context, *JobSpec, ExecOptions) (json.RawMessage, error) {
		return json.RawMessage(`{"ok":true}`), nil
	}
	s2, err := NewScheduler(quick)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	for _, id := range ids {
		j, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id.Short())
		}
		select {
		case <-j.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("recovered job %s did not finish", id.Short())
		}
		st := j.Status()
		if st.State != StateDone {
			t.Fatalf("recovered job %s ended %s: %s", id.Short(), st.State, st.Error)
		}
		if !st.Recovered {
			t.Errorf("job %s not marked recovered", id.Short())
		}
	}
	if st := s2.Stats(); st.Durability.RecoveredJobs != 3 {
		t.Errorf("recovered_jobs = %d, want 3", st.Durability.RecoveredJobs)
	}

	// Third start: everything completed, so recovery has nothing to do
	// and the compacted journal is empty.
	s3, err := NewScheduler(quick)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Stop()
	if st := s3.Stats(); st.Durability.RecoveredJobs != 0 {
		t.Errorf("clean restart recovered %d jobs, want 0", st.Durability.RecoveredJobs)
	}
}

// TestCheckpointStoreRejectsCorruptAndMisaddressed: checkpoints that
// fail CRC or carry another job's id are quarantined, not resumed from.
func TestCheckpointStoreRejectsCorruptAndMisaddressed(t *testing.T) {
	root := t.TempDir()
	s, _, _ := storeScheduler(t, root)
	dir := filepath.Join(root, "ckpt")
	d := testDigest("ckpt-a")
	other := testDigest("ckpt-b")
	if !s.ckpt.put(d, json.RawMessage(`{"trial":7}`)) {
		t.Fatal("checkpoint save failed on a healthy store")
	}
	if got, ok := s.ckpt.get(d); !ok || string(got) != `{"trial":7}` {
		t.Fatalf("round trip failed: %q %v", got, ok)
	}

	// Misaddressed: copy a's checkpoint onto b's path.
	data, err := os.ReadFile(filepath.Join(dir, string(d)+".ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, string(other)+".ckpt.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.ckpt.get(other); ok {
		t.Fatal("checkpoint addressed to another job was accepted")
	}

	// Corrupt: damage the payload under the CRC.
	bad := []byte(strings.Replace(string(data), `trial`, `trail`, 1))
	if err := os.WriteFile(filepath.Join(dir, string(d)+".ckpt.json"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.ckpt.get(d); ok {
		t.Fatal("corrupt checkpoint was accepted")
	}
	if st := s.ckpt.Stats(); st.Quarantined != 2 {
		t.Errorf("quarantined = %d, want 2", st.Quarantined)
	}
}
