package sim

import (
	"repro/internal/bitstream"
	"repro/internal/bus"
	"repro/internal/errmodel"
	"repro/internal/frame"
	"repro/internal/node"
)

// RunFrame is the single-frame experiment behind the paper's figures, the
// exhaustive verifier's patterns and the overhead measurement: station 0
// broadcasts f on a fresh bus of the given size while script (nil for
// none) flips views, and the bus runs until it is quiet or maxSlots
// pass. crash names a station crashed at its first flag
// (CrashAtFirstFlag), or -1 for none; probes are attached ahead of the
// crash probe. It returns the cluster, whether the bus went quiet and how
// many copies of f each station delivered. A caller running many
// patterns of one frame keeps a FrameRunner instead.
func RunFrame(policy node.EOFPolicy, stations int, f *frame.Frame, script *errmodel.Script, crash int, probes []bus.Probe, maxSlots int) (*Cluster, bool, []int, error) {
	r, err := NewFrameRunner(policy, stations, f)
	if err != nil {
		return nil, false, nil, err
	}
	cluster, quiet, deliveries := r.Run(script, crash, probes, maxSlots)
	return cluster, quiet, deliveries, nil
}

// FrameRunner runs RunFrame's experiment repeatedly on one reused
// cluster. Every run restores a snapshot instead of building a cluster:
// the origin (slot 0, f queued at station 0) or the prefix, the last slot
// before any station enters its end-of-frame episode. Up to the prefix the
// broadcast is undisturbed and identical for every pattern, so a run
// restored there simulates only its own suffix.
//
// The prefix is sound for scripts that cannot fire before a station's
// first EOF bit — the EOF-relative vocabulary (errmodel.AtEOFBit,
// Script.FlipEOF) never does — and for the crash probe, which waits for
// a flag. A run with probes restores the origin instead: a probe's own
// state cannot be rewound, so a recording probe must see every slot
// from 0.
//
// A run from the prefix whose script can fire only in first-attempt
// episodes (Script.BoundTo(1)) also memoizes the rest of the run from
// its settle point, the first slot after the prefix at which no station
// is inside an end-of-frame episode. Every station enters its
// first-attempt episode in the slot after the prefix, so at the settle
// point the script is dead and the rest of the run is a pure function of
// the joint state: every controller's protocol state, the network clock,
// the crash probe and the remaining budget. Runs that reach an equal
// state share one simulated suffix (DESIGN.md §7).
//
// A FrameRunner is not safe for concurrent use.
type FrameRunner struct {
	cluster *Cluster
	f       *frame.Frame
	origin  clusterState
	prefix  clusterState

	// memoSound records that every station enters its first-attempt
	// end-of-frame episode in the slot after the prefix: the premise of
	// the memo's soundness, checked once on the undisturbed broadcast.
	memoSound  bool
	settled    func() bool // the settle-point predicate, bound once
	crash      CrashAtFirstFlag
	deliveries []int
	key        []byte
	memo       map[string]*suffix
	stats      MemoStats
}

// MemoStats counts a FrameRunner's suffix memo: runs that reached a
// settle point whose suffix was memoized (Hits) or not (Misses), and the
// suffixes held (Entries). Entries stop growing at memoEntries.
type MemoStats struct {
	Hits, Misses, Entries int
}

// Add accumulates o into s.
func (s *MemoStats) Add(o MemoStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Entries += o.Entries
}

// memoEntries bounds a runner's memo. A full memo still serves hits but
// stops inserting; the verification envelopes reach at most about a
// thousand joint states per runner (CAN, k <= 3, crash sweep).
const memoEntries = 1 << 12

// suffix is a memoized rest of a run: the cluster state at its end and
// the records each station appended after the settle point.
type suffix struct {
	end        clusterState
	deliveries [][]Delivery
	txResults  [][]TxResult
	verdicts   [][]node.Verdict
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
	r := &FrameRunner{
		cluster:    c,
		f:          f,
		origin:     c.snapshot(),
		deliveries: make([]int, stations),
		memo:       make(map[string]*suffix),
	}
	r.prefix = r.origin
	for i := 0; i < prefixLimit; i++ {
		s := c.snapshot()
		c.Net.Step()
		if c.holdsEpisode() {
			r.prefix = s
			r.memoSound = true
			for _, n := range c.Nodes {
				r.memoSound = r.memoSound && n.InEpisode() && n.Attempts() == 1
			}
			break
		}
	}
	c.restore(&r.origin)
	prefixSlot := r.prefix.net.Slot()
	r.settled = func() bool { return c.Net.Slot() > prefixSlot && !c.holdsEpisode() }
	return r, nil
}

// Run broadcasts the runner's frame once: it restores the latest snapshot
// the run allows, attaches probes, the script (nil for none) and the
// crash probe, and runs the rest of the maxSlots budget. The results mean
// what RunFrame's do; the cluster and the deliveries slice are the
// runner's own and are overwritten by the next Run. The run consumes the
// script's flips: a caller running a pattern again refills it.
func (r *FrameRunner) Run(script *errmodel.Script, crash int, probes []bus.Probe, maxSlots int) (*Cluster, bool, []int) {
	from := &r.prefix
	if len(probes) > 0 || int(from.net.Slot()) > maxSlots {
		from = &r.origin
	}
	c := r.cluster
	c.restore(from)
	for _, p := range probes {
		c.Net.AddProbe(p)
	}
	if script != nil {
		c.Net.AddDisturber(script)
	}
	if crash >= 0 {
		r.crash = CrashAtFirstFlag{Ctrl: c.Nodes[crash], Station: crash}
		c.Net.AddProbe(&r.crash)
	}
	budget := maxSlots - int(from.net.Slot())
	var quiet bool
	if from == &r.prefix && r.memoSound && len(probes) == 0 && (script == nil || script.BoundTo(1)) {
		quiet = r.runMemo(crash, budget)
	} else {
		quiet = c.RunUntilQuiet(budget)
	}
	for i := range r.deliveries {
		r.deliveries[i] = c.DeliveryCount(i, r.f)
	}
	return c, quiet, r.deliveries
}

// MemoStats returns the runner's memo counters.
func (r *FrameRunner) MemoStats() MemoStats {
	s := r.stats
	s.Entries = len(r.memo)
	return s
}

// runMemo is RunUntilQuiet(budget) for a memoizable run: it simulates to
// the settle point, then either replays a memoized suffix or simulates
// the suffix and memoizes it. A run that exhausts its budget is never
// memoized. A quiet cluster has always settled — no controller of it is
// inside an episode — so stopping at the settle point never runs past
// the slot at which RunUntilQuiet would stop.
func (r *FrameRunner) runMemo(crash, budget int) bool {
	c := r.cluster
	start := c.Net.Slot()
	if !c.Net.RunUntil(r.settled, budget) {
		c.Net.Run(4)
		return false
	}
	budget -= int(c.Net.Slot() - start)
	r.key = r.appendKey(r.key[:0], crash, budget)
	if e, ok := r.memo[string(r.key)]; ok {
		r.stats.Hits++
		c.restoreState(&e.end)
		for i := range c.Nodes {
			c.Deliveries[i] = append(c.Deliveries[i], e.deliveries[i]...)
			c.TxResults[i] = append(c.TxResults[i], e.txResults[i]...)
			c.Verdicts[i] = append(c.Verdicts[i], e.verdicts[i]...)
		}
		return true
	}
	r.stats.Misses++
	if len(r.memo) >= memoEntries {
		return c.RunUntilQuiet(budget)
	}
	n := len(c.Nodes)
	marks := make([][3]int, n)
	for i := range marks {
		marks[i] = [3]int{len(c.Deliveries[i]), len(c.TxResults[i]), len(c.Verdicts[i])}
	}
	if !c.RunUntilQuiet(budget) {
		return false
	}
	e := &suffix{
		end:        c.snapshot(),
		deliveries: make([][]Delivery, n),
		txResults:  make([][]TxResult, n),
		verdicts:   make([][]node.Verdict, n),
	}
	for i, m := range marks {
		e.deliveries[i] = append([]Delivery(nil), c.Deliveries[i][m[0]:]...)
		e.txResults[i] = append([]TxResult(nil), c.TxResults[i][m[1]:]...)
		e.verdicts[i] = append([]node.Verdict(nil), c.Verdicts[i][m[2]:]...)
	}
	r.memo[string(r.key)] = e
	return true
}

// appendKey appends the memo key of the cluster's current state: the
// network clock, every controller's protocol state, the crash probe's
// station and whether it fired, and the remaining slot budget.
func (r *FrameRunner) appendKey(b []byte, crash, budget int) []byte {
	c := r.cluster
	b = c.Net.Snapshot().AppendKey(b)
	for _, n := range c.Nodes {
		b = n.AppendKey(b)
	}
	b = bitstream.AppendKeyInt(b, int64(crash))
	b = bitstream.AppendKeyBool(b, crash >= 0 && r.crash.done)
	return bitstream.AppendKeyInt(b, int64(budget))
}

// clusterState is a cluster snapshot: the network's clock and every
// controller's protocol state.
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

// restore returns the cluster to a snapshot taken before any station
// recorded a delivery, transmission or verdict, so it empties those
// lists.
func (c *Cluster) restore(s *clusterState) {
	c.restoreState(s)
	for i := range c.Nodes {
		c.Deliveries[i] = c.Deliveries[i][:0]
		c.TxResults[i] = c.TxResults[i][:0]
		c.Verdicts[i] = c.Verdicts[i][:0]
	}
}

// restoreState restores the network clock and every controller, leaving
// the record lists alone.
func (c *Cluster) restoreState(s *clusterState) {
	c.Net.Restore(s.net)
	for i, n := range c.Nodes {
		n.Restore(s.nodes[i])
	}
}

// holdsEpisode reports whether any controller is inside an end-of-frame
// episode.
func (c *Cluster) holdsEpisode() bool {
	for _, n := range c.Nodes {
		if n.InEpisode() {
			return true
		}
	}
	return false
}
