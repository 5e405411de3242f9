// Command verify exhaustively enumerates every disturbance pattern with up
// to k view flips in the end-of-frame decision region and checks the
// protocol's consistency — the bounded model-checking pass the paper left
// as future work.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/verify"
)

func main() {
	policyName := flag.String("policy", "majorcan_5", "protocol: can, minorcan or majorcan_<m>")
	stations := flag.Int("stations", 4, "number of stations (station 0 transmits)")
	k := flag.Int("k", 2, "maximum number of simultaneous view flips")
	positions := flag.Int("positions", 0, "EOF-relative positions to disturb (0 = the policy's full decision region)")
	parallel := flag.Int("parallel", 4, "concurrent simulations")
	crash := flag.Bool("crash", false, "also crash each station at its first flag, per pattern")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	stopProf, err := obs.StartProfiling(*cpuProfile, *memProfile, *pprofAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "verify: %v\n", err)
		os.Exit(1)
	}
	exit := func(code int) {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "verify: %v\n", err)
		}
		os.Exit(code)
	}

	policy, err := core.ParsePolicy(*policyName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "verify: %v\n", err)
		exit(1)
	}
	//lint:allow determinism -- CLI elapsed-time display; not simulation state
	start := time.Now()
	rep, memo, err := verify.ExhaustiveStats(context.Background(), verify.Config{
		Policy:      policy,
		Stations:    *stations,
		MaxFlips:    *k,
		Positions:   *positions,
		Parallelism: *parallel,
		CrashSweep:  *crash,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "verify: %v\n", err)
		exit(1)
	}
	fmt.Println(rep.Summary())
	//lint:allow determinism -- CLI elapsed-time display; not simulation state
	fmt.Printf("elapsed: %s\n", time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "suffix memo: %d hits, %d misses, %d entries\n", memo.Hits, memo.Misses, memo.Entries)
	if !rep.Consistent() {
		byOutcome := map[verify.Outcome]int{}
		for _, v := range rep.Violations {
			byOutcome[v.Outcome]++
		}
		fmt.Printf("violations by outcome: %v\n", byOutcome)
		exit(2)
	}
	exit(0)
}
