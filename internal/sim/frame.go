package sim

import (
	"repro/internal/bus"
	"repro/internal/errmodel"
	"repro/internal/frame"
	"repro/internal/node"
)

// RunFrame is the single-frame experiment behind the paper's figures, the
// exhaustive verifier's patterns and the overhead measurement: station 0
// broadcasts f on a fresh bus of the given size while the scripted rules
// flip views, and the bus runs until it is quiet or maxSlots pass. crash
// names a station crashed at its first flag (CrashAtFirstFlag), or -1 for
// none; probes are attached ahead of the crash probe. It returns the
// cluster, whether the bus went quiet and how many copies of f each
// station delivered.
func RunFrame(policy node.EOFPolicy, stations int, f *frame.Frame, rules []*errmodel.Rule, crash int, probes []bus.Probe, maxSlots int) (*Cluster, bool, []int, error) {
	cluster, err := NewCluster(ClusterOptions{Nodes: stations, Policy: policy})
	if err != nil {
		return nil, false, nil, err
	}
	for _, p := range probes {
		cluster.Net.AddProbe(p)
	}
	if len(rules) > 0 {
		cluster.Net.AddDisturber(errmodel.NewScript(rules...))
	}
	if crash >= 0 {
		cluster.Net.AddProbe(&CrashAtFirstFlag{Ctrl: cluster.Nodes[crash], Station: crash})
	}
	if err := cluster.Nodes[0].Enqueue(f); err != nil {
		return nil, false, nil, err
	}
	quiet := cluster.RunUntilQuiet(maxSlots)
	deliveries := make([]int, stations)
	for i := range deliveries {
		deliveries[i] = cluster.DeliveryCount(i, f)
	}
	return cluster, quiet, deliveries, nil
}
