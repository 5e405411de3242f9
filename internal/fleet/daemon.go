package fleet

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/serve"
)

// DaemonMain is the body of `mcservd -coordinator`: flag parsing and
// coordinator construction (journal recovery included), then the
// serving loop and graceful drain the worker daemon uses too. Like the
// worker daemon it lives in the library so a crash-recovery harness can
// SIGKILL and restart the exact shipping code path.
//
// The returned int is the process exit code: 0 after a clean drain,
// nonzero on startup failure or an incomplete drain.
func DaemonMain(args []string) int {
	fs := flag.NewFlagSet("mcservd -coordinator", flag.ContinueOnError)
	d := serve.NewDaemon(fs, "127.0.0.1:8330")
	var (
		workers       = fs.String("workers", "", "comma-separated worker base URLs (required)")
		shardsPerJob  = fs.Int("shards-per-job", 0, "target shards per logical job (0 = 2x workers)")
		assignRetries = fs.Int("assign-retries", 3, "dispatch attempts per shard before the job fails")
		shardWait     = fs.Duration("shard-wait", 10*time.Minute, "end-to-end budget per shard dispatch")
		heartbeat     = fs.Duration("heartbeat", time.Second, "worker heartbeat cadence")
		maxJobs       = fs.Int("max-jobs", 4, "concurrent logical jobs")
		cacheEntries  = fs.Int("cache", 256, "in-memory merged-result cache entries")
		spool         = fs.String("spool", "", "result spool directory (empty = memory only)")
		journalPath   = fs.String("journal", "auto", "fleet journal path (auto = <spool>/fleet-journal.wal, none = disabled)")
	)
	if !d.Parse(fs, args, "coordinator") {
		return 2
	}
	logger := d.Logger

	var urls []string
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "mcservd: -coordinator requires -workers (comma-separated base URLs)")
		return 2
	}

	coord, err := NewCoordinator(Config{
		Workers:       urls,
		ShardsPerJob:  *shardsPerJob,
		AssignRetries: *assignRetries,
		ShardWait:     *shardWait,
		Heartbeat:     *heartbeat,
		MaxJobs:       *maxJobs,
		CacheEntries:  *cacheEntries,
		SpoolDir:      *spool,
		JournalPath:   serve.StorePath(*journalPath, *spool, "fleet-journal.wal"),
		Logger:        logger,
	})
	if err != nil {
		logger.Error("startup failed", "err", err)
		return 1
	}
	coord.Start()
	d.Handler = NewServer(coord)
	d.Drain = func(ctx context.Context) error {
		err := coord.Drain(ctx)
		coord.Stop() // drained: this only ends the heartbeats
		st := coord.Stats()
		logger.Info("drained",
			"completed", st.Jobs.Completed, "failed", st.Jobs.Failed,
			"shards_dispatched", st.Shards.Dispatched, "reassigned", st.Shards.Reassigned,
			"recovered", st.Jobs.Recovered)
		return err
	}
	return d.Run("workers", len(urls), "shards_per_job", coord.cfg.ShardsPerJob, "spool", *spool)
}
