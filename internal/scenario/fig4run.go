package scenario

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/errmodel"
	"repro/internal/node"
)

// fig4Run executes one Fig. 4 probe: a single disturbance rule applied to
// station 1 under the given MajorCAN policy, observing how that station
// handles the error.
func fig4Run(policy node.EOFPolicy, rule *errmodel.Rule, position int) (Fig4Row, error) {
	cfg := baseConfig(fmt.Sprintf("Fig. 4 position %d", position), policy)
	cfg.Script = errmodel.NewScript(rule)
	out, err := Run(cfg)
	if err != nil {
		return Fig4Row{}, err
	}
	row := Fig4Row{Position: position}

	// Inspect station 1's phases during the first transmission attempt.
	for _, rec := range out.Recorder.Records() {
		v := rec.Views[1]
		if v.Attempts != 1 {
			continue
		}
		switch v.Phase {
		case bus.PhaseExtFlag:
			row.Extended = true
		case bus.PhaseSampling:
			row.Sampled = true
		}
	}
	if len(out.Cluster.Verdicts[1]) == 0 {
		return Fig4Row{}, fmt.Errorf("fig4 position %d: station 1 recorded no verdict", position)
	}
	row.Verdict = out.Cluster.Verdicts[1][0]

	// Bus consistency of the first attempt: every live station must have
	// reached the same first verdict.
	row.BusConsistent = true
	for i := 0; i < len(out.Cluster.Verdicts); i++ {
		vs := out.Cluster.Verdicts[i]
		if len(vs) == 0 {
			return Fig4Row{}, fmt.Errorf("fig4 position %d: station %d recorded no verdict", position, i)
		}
		if vs[0] != row.Verdict {
			row.BusConsistent = false
		}
	}
	return row, nil
}

// RenderFig4 prints the Fig. 4 table in the paper's style.
func RenderFig4(rows []Fig4Row) string {
	s := ""
	for _, r := range rows {
		flag := "6-bit error flag"
		if r.Extended {
			flag = "extended error flag"
		}
		sampling := "no sampling is performed"
		if r.Sampled {
			sampling = "sampling is performed"
		}
		verdict := "frame is rejected"
		if r.Verdict == node.VerdictAccept {
			verdict = "frame is accepted"
		}
		consistent := "bus consistent"
		if !r.BusConsistent {
			consistent = "BUS INCONSISTENT"
		}
		s += fmt.Sprintf("%-28s %-20s %-26s %-18s %s\n", r.Label(), flag, sampling, verdict, consistent)
	}
	return s
}
