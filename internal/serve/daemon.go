package serve

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/obs"
)

// DaemonMain is the body of the mcservd command: flag parsing, scheduler
// construction (journal recovery included), HTTP serving and graceful
// drain. It lives in the library so the crash-recovery harness can run a
// real daemon process by re-executing the test binary — the process that
// gets SIGKILLed is byte-for-byte the code that ships.
//
// The returned int is the process exit code: 0 after a clean drain,
// nonzero on startup failure or an incomplete drain.
func DaemonMain(args []string) int {
	fs := flag.NewFlagSet("mcservd", flag.ContinueOnError)
	d := NewDaemon(fs, "127.0.0.1:8329")
	var (
		shards       = fs.Int("shards", 4, "worker shards")
		queue        = fs.Int("queue", 64, "per-shard queue depth")
		jobTimeout   = fs.Duration("job-timeout", 10*time.Minute, "per-job execution timeout")
		parallelism  = fs.Int("parallelism", 1, "intra-job parallelism (sweep points, verify patterns)")
		cacheEntries = fs.Int("cache", 256, "in-memory result cache entries")
		spool        = fs.String("spool", "", "result spool directory (empty = memory only)")
		journalPath  = fs.String("journal", "auto", "write-ahead job journal path (auto = <spool>/journal.wal, none = disabled)")
		ckptDir      = fs.String("checkpoints", "auto", "job checkpoint directory (auto = <spool>/checkpoints, none = disabled)")
		ckptEvery    = fs.Int("checkpoint-every", 8, "checkpoint cadence in work units (sweep points, campaign trials)")
		captureEv    = fs.Int("capture-events", 0, "per-job trace capture buffer in events (0 = default)")
		mutexProf    = fs.String("mutexprofile", "", "write a mutex-contention profile here on clean exit")
		blockProf    = fs.String("blockprofile", "", "write a blocking-event profile here on clean exit")
	)
	if !d.Parse(fs, args, "mcservd") {
		return 2
	}
	logger := d.Logger

	// Contention profiling is opt-in and sampled at full rate; the
	// profiles are written when the daemon exits cleanly, so a drain (not
	// a SIGKILL) is required to get them.
	stopContention := obs.StartContention(*mutexProf, *blockProf)
	defer func() {
		if err := stopContention(); err != nil {
			logger.Warn("contention profile", "err", err)
		}
	}()

	sched, err := NewScheduler(Config{
		Shards:          *shards,
		QueueDepth:      *queue,
		JobTimeout:      *jobTimeout,
		Parallelism:     *parallelism,
		CacheEntries:    *cacheEntries,
		CaptureEvents:   *captureEv,
		SpoolDir:        *spool,
		JournalPath:     StorePath(*journalPath, *spool, "journal.wal"),
		CheckpointDir:   StorePath(*ckptDir, *spool, "checkpoints"),
		CheckpointEvery: *ckptEvery,
		Logger:          logger,
		// Durability degradation and journal recovery land in the daemon
		// log as NDJSON. The no-op line hook makes the stream flush per
		// line: these events are rare and must be visible immediately —
		// buffered, they would never surface (nothing flushes a service
		// sink) and a crash would eat them.
		ServiceEvents: obs.NewJSONLStream(os.Stderr, 0, func() {}),
	})
	if err != nil {
		logger.Error("startup failed", "err", err)
		return 1
	}

	d.Handler = NewServer(sched)
	d.Drain = func(ctx context.Context) error {
		err := sched.Drain(ctx)
		st := sched.Stats()
		logger.Info("drained",
			"executed", st.Jobs.Executed, "coalesced", st.Jobs.Coalesced,
			"cache_hits", st.Cache.Hits, "failed", st.Jobs.Failed,
			"recovered", st.Durability.RecoveredJobs)
		return err
	}
	return d.Run("shards", *shards, "queue", *queue, "cache", *cacheEntries, "spool", *spool)
}

// StorePath resolves a durable-store path flag: "auto" places def
// under the spool directory (nothing without a spool), "none" or "off"
// disables the store, anything else is used as given.
func StorePath(v, spool, def string) string {
	switch v {
	case "auto":
		if spool == "" {
			return ""
		}
		return filepath.Join(spool, def)
	case "none", "off":
		return ""
	}
	return v
}

// Daemon is the serving loop both daemon roles share: listen, publish
// the bound address, serve until SIGINT or SIGTERM, then drain and shut
// the listener down.
type Daemon struct {
	Addr     string
	PortFile string // if non-empty, receives the bound address once serving
	Handler  http.Handler
	// DrainTimeout bounds Drain and the HTTP shutdown after it.
	DrainTimeout time.Duration
	// Drain stops admissions and finishes in-flight work within ctx,
	// logging its own summary; an error makes the exit code 1.
	Drain  func(ctx context.Context) error
	Logger *slog.Logger

	logFormat string
}

// NewDaemon registers the flags both daemon roles share — listen
// address, portfile, drain budget and log format — on fs, and returns
// the Daemon that parsing them fills in.
func NewDaemon(fs *flag.FlagSet, addr string) *Daemon {
	d := &Daemon{}
	fs.StringVar(&d.Addr, "addr", addr, "listen address")
	fs.StringVar(&d.PortFile, "portfile", "", "write the bound listen address to this file once serving")
	fs.DurationVar(&d.DrainTimeout, "drain-timeout", 5*time.Minute, "graceful drain budget on SIGTERM")
	fs.StringVar(&d.logFormat, "log-format", "text", "log output format: text or json")
	return d
}

// Parse parses args with fs and opens the daemon's logger, tagged with
// component. False means the daemon must exit with code 2; the reason
// has been printed.
func (d *Daemon) Parse(fs *flag.FlagSet, args []string, component string) bool {
	if err := fs.Parse(args); err != nil {
		return false
	}
	logger, err := obs.NewLogger(os.Stderr, d.logFormat, slog.LevelInfo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcservd:", err)
		return false
	}
	d.Logger = logger.With("component", component)
	return true
}

// Run serves until a signal, then drains. attrs extend the "listening"
// log line. The returned int is the process exit code: 0 after a clean
// drain, 1 on a listen or serve failure or an incomplete drain.
func (d *Daemon) Run(attrs ...any) int {
	logger := d.Logger
	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		logger.Error("listen failed", "addr", d.Addr, "err", err)
		return 1
	}
	if d.PortFile != "" {
		if err := os.WriteFile(d.PortFile, []byte(ln.Addr().String()), 0o644); err != nil {
			logger.Error("portfile write failed", "path", d.PortFile, "err", err)
			return 1
		}
	}
	srv := &http.Server{Handler: d.Handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	logger.Info("listening", append([]any{"addr", ln.Addr().String()}, attrs...)...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		logger.Error("serve failed", "err", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	// Drain: reject new jobs (503), finish what is queued and running,
	// then close the listener. The HTTP server stays up through the
	// drain so clients see 503s, not connection resets.
	logger.Info("draining", "budget", d.DrainTimeout.String())
	dctx, cancel := context.WithTimeout(context.Background(), d.DrainTimeout)
	defer cancel()
	drainErr := d.Drain(dctx)
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "err", err)
	}
	if drainErr != nil {
		logger.Error("drain incomplete", "err", drainErr)
		return 1
	}
	return 0
}
