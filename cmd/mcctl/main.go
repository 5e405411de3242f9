// Command mcctl is the client for the simulation service (mcservd).
//
//	mcctl -server http://127.0.0.1:8329 submit sweep.json   # submit, print digest
//	mcctl submit -wait campaign.json                        # submit and block
//	mcctl get <digest>                                      # job status + result
//	mcctl wait <digest>                                     # poll to completion
//	mcctl watch <digest>                                    # stream NDJSON events
//	mcctl stats                                             # scheduler statistics
//	mcctl stats -watch                                      # live-refresh summary line
//	mcctl trace <digest>                                    # Perfetto trace download
//	mcctl metrics -lint                                     # Prometheus scrape + lint
//	mcctl health                                            # ok | degraded | draining
//	mcctl fleet                                             # coordinator: workers + shard progress
//	mcctl fleet -watch                                      # stream fleet lifecycle events
//
// Job specs are the canonical JSON format shared with mcsim -spec and
// chaos -spec: byte-identical resubmits are answered from the service's
// content-addressed cache without re-simulating.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	os.Exit(run())
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: mcctl [-server URL] <command> [args]

commands:
  submit [-wait] [-timeout D] [-retries N] <spec.json|->
                                              submit a job spec (- reads stdin);
                                              429s retry after the service's Retry-After
  get <digest>                                fetch job status and result
  wait [-poll D] <digest>                     poll a job to completion
  watch [-follow=false] <digest>              stream the job's events as NDJSON,
                                              reconnecting dropped streams
  stats [-watch] [-interval D]                print scheduler statistics; -watch
                                              live-refreshes a summary line with deltas
  trace [-o FILE] <digest>                    download a finished job's Perfetto trace
                                              (Chrome trace-event JSON; open in ui.perfetto.dev)
  metrics [-lint]                             print the Prometheus /metrics exposition;
                                              -lint validates the format and prints nothing
  health                                      print service health
  fleet [-watch]                              against a coordinator: print the worker pool
                                              and per-job shard progress; -watch streams the
                                              fleet event log as NDJSON, reconnecting
                                              dropped streams`)
}

func run() int {
	server := flag.String("server", envOr("MCSERVD_URL", "http://127.0.0.1:8329"), "service base URL")
	flag.Usage = func() { usage() }
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	client := serve.NewClient(*server)

	var err error
	switch cmd, args := flag.Arg(0), flag.Args()[1:]; cmd {
	case "submit":
		err = cmdSubmit(ctx, client, args)
	case "get":
		err = cmdGet(ctx, client, args)
	case "wait":
		err = cmdWait(ctx, client, args)
	case "watch":
		err = cmdWatch(ctx, client, args)
	case "stats":
		err = cmdStats(ctx, client, args)
	case "trace":
		err = cmdTrace(ctx, client, args)
	case "metrics":
		err = cmdMetrics(ctx, client, args)
	case "health":
		err = cmdHealth(ctx, client)
	case "fleet":
		err = cmdFleet(ctx, client, args)
	default:
		fmt.Fprintf(os.Stderr, "mcctl: unknown command %q\n", cmd)
		usage()
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcctl: %v\n", err)
		var ae *serve.APIError
		if errors.As(err, &ae) && ae.RetryAfter > 0 {
			fmt.Fprintf(os.Stderr, "mcctl: service busy; retry after %s\n", ae.RetryAfter)
		}
		return 1
	}
	return 0
}

func envOr(key, fallback string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return fallback
}

func readSpec(path string) (*serve.JobSpec, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return serve.DecodeSpec(data)
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func cmdSubmit(ctx context.Context, client *serve.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	wait := fs.Bool("wait", false, "block until the job completes")
	timeout := fs.Duration("timeout", 0, "bound the wait (0 = unbounded)")
	retries := fs.Int("retries", 3, "attempts when the service answers 429 (honors Retry-After)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("submit needs exactly one spec file (or - for stdin)")
	}
	spec, err := readSpec(fs.Arg(0))
	if err != nil {
		return err
	}
	w := time.Duration(0)
	if *wait {
		w = -1
		if *timeout > 0 {
			w = *timeout
		}
	}
	resp, err := client.SubmitRetry(ctx, spec, w, *retries)
	if err != nil {
		return err
	}
	return printJSON(resp)
}

func parseDigestArg(args []string) (serve.Digest, error) {
	if len(args) != 1 {
		return "", errors.New("need exactly one job digest")
	}
	return serve.Digest(args[0]), nil
}

func cmdGet(ctx context.Context, client *serve.Client, args []string) error {
	d, err := parseDigestArg(args)
	if err != nil {
		return err
	}
	st, err := client.Job(ctx, d)
	if err != nil {
		return err
	}
	return printJSON(st)
}

func cmdWait(ctx context.Context, client *serve.Client, args []string) error {
	fs := flag.NewFlagSet("wait", flag.ContinueOnError)
	poll := fs.Duration("poll", 250*time.Millisecond, "poll interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := parseDigestArg(fs.Args())
	if err != nil {
		return err
	}
	st, err := client.Wait(ctx, d, *poll)
	if err != nil {
		return err
	}
	if perr := printJSON(st); perr != nil {
		return perr
	}
	if st.State == serve.StateFailed {
		return fmt.Errorf("job %s failed: %s", d.Short(), st.Error)
	}
	return nil
}

func cmdWatch(ctx context.Context, client *serve.Client, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	follow := fs.Bool("follow", true, "reconnect dropped streams with backoff, resuming at the last seen line")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := parseDigestArg(fs.Args())
	if err != nil {
		return err
	}
	emit := func(line []byte) error {
		_, werr := fmt.Fprintf(os.Stdout, "%s\n", line)
		return werr
	}
	if *follow {
		return client.Watch(ctx, d, emit)
	}
	return client.Events(ctx, d, emit)
}

func cmdStats(ctx context.Context, client *serve.Client, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	watch := fs.Bool("watch", false, "live-refresh a one-line summary until interrupted")
	interval := fs.Duration("interval", time.Second, "refresh interval for -watch")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*watch {
		st, err := client.Stats(ctx)
		if err != nil {
			return err
		}
		return printJSON(st)
	}
	return watchStats(ctx, client, *interval)
}

// watchStats polls /v1/stats and repaints one status line in place:
// queue depth, throughput deltas since the previous sample, run-latency
// quantiles, cache hit ratio and event-loss counters.
func watchStats(ctx context.Context, client *serve.Client, interval time.Duration) error {
	if interval <= 0 {
		interval = time.Second
	}
	line := obs.NewStatusLine(os.Stdout)
	defer line.Close("")
	var prev *serve.Stats
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		st, err := client.Stats(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil // interrupted mid-request
			}
			return err
		}
		depth := 0
		for _, sh := range st.Shards {
			depth += sh.Depth
		}
		var dSub, dExec uint64
		if prev != nil {
			dSub = st.Jobs.Submitted - prev.Jobs.Submitted
			dExec = st.Jobs.Executed - prev.Jobs.Executed
		}
		status := fmt.Sprintf(
			"up %s | queue %d | jobs %d (+%d) done %d (+%d) failed %d | p50 %dms p99 %dms | cache %.1f%% | drops %d",
			(time.Duration(st.UptimeSeconds) * time.Second).String(),
			depth, st.Jobs.Submitted, dSub, st.Jobs.Executed, dExec, st.Jobs.Failed,
			st.Latency.P50Ms, st.Latency.P99Ms, 100*st.Cache.HitRatio,
			st.Events.DroppedEvents)
		if st.Draining {
			status = "DRAINING | " + status
		}
		line.Update(status)
		prev = st
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
	}
}

func cmdTrace(ctx context.Context, client *serve.Client, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	out := fs.String("o", "", "write the trace to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := parseDigestArg(fs.Args())
	if err != nil {
		return err
	}
	data, err := client.Trace(ctx, d)
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mcctl: wrote %d bytes to %s (open in ui.perfetto.dev)\n", len(data), *out)
	return nil
}

func cmdMetrics(ctx context.Context, client *serve.Client, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ContinueOnError)
	lint := fs.Bool("lint", false, "validate the exposition format instead of printing it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := client.MetricsText(ctx)
	if err != nil {
		return err
	}
	if *lint {
		if err := obs.LintProm(bytes.NewReader(data)); err != nil {
			return fmt.Errorf("metrics lint: %w", err)
		}
		fmt.Fprintln(os.Stderr, "mcctl: metrics exposition ok")
		return nil
	}
	_, err = os.Stdout.Write(data)
	return err
}

func cmdHealth(ctx context.Context, client *serve.Client) error {
	status, err := client.Healthz(ctx)
	if err != nil {
		return err
	}
	fmt.Println(status)
	return nil
}

// cmdFleet talks to a coordinator: the default prints the /v1/fleet
// view (worker pool plus per-job shard progress) as JSON; -watch
// streams the coordinator-wide event log, riding the same reconnecting
// NDJSON engine the per-job watch uses — dropped connections resume at
// the last seen line.
func cmdFleet(ctx context.Context, client *serve.Client, args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	watch := fs.Bool("watch", false, "stream fleet lifecycle events as NDJSON until interrupted")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *watch {
		err := client.WatchLines(ctx, "/v1/fleet/events", func(line []byte) error {
			_, werr := fmt.Fprintf(os.Stdout, "%s\n", line)
			return werr
		}, nil)
		if ctx.Err() != nil {
			return nil // interrupted: a clean exit, not a stream failure
		}
		return err
	}
	var view fleet.FleetView
	if err := client.GetJSON(ctx, "/v1/fleet", &view); err != nil {
		return err
	}
	return printJSON(view)
}
