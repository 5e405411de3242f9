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
// station delivered. A caller running many patterns of one frame keeps a
// FrameRunner instead.
func RunFrame(policy node.EOFPolicy, stations int, f *frame.Frame, rules []*errmodel.Rule, crash int, probes []bus.Probe, maxSlots int) (*Cluster, bool, []int, error) {
	r, err := NewFrameRunner(policy, stations, f)
	if err != nil {
		return nil, false, nil, err
	}
	cluster, quiet, deliveries := r.Run(rules, crash, probes, maxSlots)
	return cluster, quiet, deliveries, nil
}

// FrameRunner runs RunFrame's experiment repeatedly on one reused
// cluster. Every run restores a snapshot instead of building a cluster:
// the origin (slot 0, f queued at station 0) or the prefix, the last slot
// before any station enters its end-of-frame episode. Up to the prefix the
// broadcast is undisturbed and identical for every pattern, so a run
// restored there simulates only its own suffix.
//
// The prefix is sound for rules that cannot fire before a station's first
// EOF bit — the EOF-relative vocabulary (errmodel.AtEOFBit) never does —
// and for the crash probe, which waits for a flag. A run with probes
// restores the origin instead: a probe's own state cannot be rewound, so a
// recording probe must see every slot from 0.
//
// A FrameRunner is not safe for concurrent use.
type FrameRunner struct {
	cluster *Cluster
	f       *frame.Frame
	origin  clusterState
	prefix  clusterState
}

// prefixLimit bounds the prefix search; an undisturbed frame reaches its
// end-of-frame field well within it.
const prefixLimit = 1 << 12

// NewFrameRunner builds the cluster, queues f at station 0 and simulates
// the undisturbed prefix once.
func NewFrameRunner(policy node.EOFPolicy, stations int, f *frame.Frame) (*FrameRunner, error) {
	c, err := NewCluster(ClusterOptions{Nodes: stations, Policy: policy})
	if err != nil {
		return nil, err
	}
	if err := c.Nodes[0].Enqueue(f); err != nil {
		return nil, err
	}
	r := &FrameRunner{cluster: c, f: f, origin: c.snapshot()}
	r.prefix = r.origin
	for i := 0; i < prefixLimit; i++ {
		s := c.snapshot()
		c.Net.Step()
		if c.inEpisode() {
			r.prefix = s
			break
		}
	}
	c.restore(&r.origin)
	return r, nil
}

// Run broadcasts the runner's frame once: it restores the latest snapshot
// the run allows, attaches probes, rules and the crash probe, and runs the
// rest of the maxSlots budget. The results mean what RunFrame's do; the
// cluster is the runner's own and is overwritten by the next Run.
func (r *FrameRunner) Run(rules []*errmodel.Rule, crash int, probes []bus.Probe, maxSlots int) (*Cluster, bool, []int) {
	from := &r.prefix
	if len(probes) > 0 || int(from.net.Slot()) > maxSlots {
		from = &r.origin
	}
	c := r.cluster
	c.restore(from)
	for _, p := range probes {
		c.Net.AddProbe(p)
	}
	if len(rules) > 0 {
		c.Net.AddDisturber(errmodel.NewScript(rules...))
	}
	if crash >= 0 {
		c.Net.AddProbe(&CrashAtFirstFlag{Ctrl: c.Nodes[crash], Station: crash})
	}
	quiet := c.RunUntilQuiet(maxSlots - int(from.net.Slot()))
	deliveries := make([]int, len(c.Nodes))
	for i := range deliveries {
		deliveries[i] = c.DeliveryCount(i, r.f)
	}
	return c, quiet, deliveries
}

// clusterState is a cluster snapshot: the network's clock and every
// controller's protocol state. It is taken before any station records a
// delivery, transmission or verdict, so a restore empties those lists.
type clusterState struct {
	net   bus.State
	nodes []node.State
}

func (c *Cluster) snapshot() clusterState {
	s := clusterState{net: c.Net.Snapshot()}
	for _, n := range c.Nodes {
		s.nodes = append(s.nodes, n.Snapshot())
	}
	return s
}

func (c *Cluster) restore(s *clusterState) {
	c.Net.Restore(s.net)
	for i, n := range c.Nodes {
		n.Restore(s.nodes[i])
		c.Deliveries[i] = c.Deliveries[i][:0]
		c.TxResults[i] = c.TxResults[i][:0]
		c.Verdicts[i] = c.Verdicts[i][:0]
	}
}

// inEpisode reports whether any station will sample an end-of-frame bit
// in the next slot.
func (c *Cluster) inEpisode() bool {
	for _, n := range c.Nodes {
		if n.EOFRel() != 0 {
			return true
		}
	}
	return false
}
