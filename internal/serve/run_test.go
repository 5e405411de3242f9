package serve

import (
	"encoding/json"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/serve/fsio"
)

// campaignCheckpoint wires campaignResume to a scheduler's checkpoint
// store, the way a campaign job runs, saving at every trial boundary.
// Writes into the store go through the returned fault-injecting
// filesystem.
func campaignCheckpoint(t *testing.T) (func(chaos.CampaignProgress), *Scheduler, *fsio.Faulty, *obs.Memory, string) {
	t.Helper()
	root := t.TempDir()
	s, ffs, events := storeScheduler(t, root)
	ck := s.checkpointIO(s.newJob(&JobSpec{Kind: KindCampaign}, nil, testDigest("campaign-resume")))
	ck.Every = 1
	_, onProgress := campaignResume(ck)
	return onProgress, s, ffs, events, filepath.Join(root, "ckpt")
}

// TestCampaignResumeSaveGiveUp pins the checkpoint give-up: a
// consecutive run of save failures disables checkpointing for the rest
// of the job instead of hammering a dead disk at every trial boundary.
func TestCampaignResumeSaveGiveUp(t *testing.T) {
	onProgress, s, ffs, events, dir := campaignCheckpoint(t)
	f := ffs.Inject(&fsio.Fault{Op: fsio.OpWrite, Path: dir, Err: syscall.ENOSPC})
	for i := 1; i <= 20; i++ {
		onProgress(chaos.CampaignProgress{Trial: i})
	}
	if n := ffs.Hits(f); n != storeDegradeAfter {
		t.Fatalf("checkpoint writes = %d, want exactly %d before the store gives up", n, storeDegradeAfter)
	}
	if !s.ckpt.Degraded() {
		t.Fatal("checkpoint store not degraded after persistent save failures")
	}
	if n := degradeEvents(events, obs.StoreCheckpoint); n != 1 {
		t.Errorf("got %d checkpoint storage-degraded events, want exactly 1", n)
	}
}

// TestCampaignResumeSaveStreakResets checks that one successful save
// clears the failure streak: isolated transient failures (a blip of
// ENOSPC that heals) never disable checkpointing.
func TestCampaignResumeSaveStreakResets(t *testing.T) {
	onProgress, s, ffs, events, dir := campaignCheckpoint(t)
	ffs.Inject(&fsio.Fault{Op: fsio.OpWrite, Path: dir, Err: syscall.ENOSPC, Count: 2})
	for i := 1; i <= 3; i++ { // streak 2, then a success resets it
		onProgress(chaos.CampaignProgress{Trial: i})
	}
	if s.ckpt.Degraded() {
		t.Fatal("degraded after two failures broken by a success")
	}
	ffs.Clear()
	f := ffs.Inject(&fsio.Fault{Op: fsio.OpWrite, Path: dir, Err: syscall.ENOSPC})
	for i := 4; i <= 20; i++ { // streak 3: give up
		onProgress(chaos.CampaignProgress{Trial: i})
	}
	if n := ffs.Hits(f); n != storeDegradeAfter {
		t.Fatalf("checkpoint writes after the reset = %d, want %d (streak resets on success, gives up after %d consecutive failures)",
			n, storeDegradeAfter, storeDegradeAfter)
	}
	if st := s.ckpt.Stats(); st.Saved != 1 || !st.Degraded {
		t.Errorf("stats = %+v, want 1 save and degraded", st)
	}
	if n := degradeEvents(events, obs.StoreCheckpoint); n != 1 {
		t.Errorf("got %d checkpoint storage-degraded events, want exactly 1", n)
	}
}

// TestCampaignResumeSaveCadence checks the boundary cadence: with
// Every=3, only every third boundary saves.
func TestCampaignResumeSaveCadence(t *testing.T) {
	saves := 0
	ck := &CheckpointIO{
		Load:  func() (json.RawMessage, bool) { return nil, false },
		Save:  func(json.RawMessage) { saves++ },
		Every: 3,
	}
	_, onProgress := campaignResume(ck)
	for i := 1; i <= 9; i++ {
		onProgress(chaos.CampaignProgress{Trial: i})
	}
	if saves != 3 {
		t.Fatalf("Save calls = %d, want 3 (boundaries 3, 6, 9)", saves)
	}
}
