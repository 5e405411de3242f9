package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/errmodel"
	"repro/internal/frame"
	"repro/internal/node"
)

// WorkloadConfig describes a periodic broadcast workload like the paper's
// reference configuration: N nodes sharing a bus at a target utilisation.
type WorkloadConfig struct {
	// Policy is the protocol variant.
	Policy node.EOFPolicy
	// Nodes is the number of stations; every station periodically
	// broadcasts its own frame.
	Nodes int
	// Slots is the simulation length in bit times.
	Slots int
	// Load is the target bus utilisation in (0,1]; station periods are
	// derived from it (the paper uses 0.9).
	Load float64
	// PayloadBytes is the frame payload size (default 8).
	PayloadBytes int
	// BerStar adds the spatial random error model with this per-node
	// per-bit probability.
	BerStar float64
	// Seed seeds the error model and jitter.
	Seed int64
	// WarningSwitchOff enables the paper's switch-off policy.
	WarningSwitchOff bool
}

// WorkloadResult summarises a periodic-workload run.
type WorkloadResult struct {
	Config WorkloadConfig
	// Offered is the number of frames enqueued.
	Offered int
	// TxSuccess is the number of frames whose transmitter confirmed
	// success.
	TxSuccess int
	// Delivered is the total number of deliveries across all receivers.
	Delivered int
	// IMOs counts frames delivered by some correct receiver but missed by
	// another at the end of the run.
	IMOs int
	// Duplicates counts (frame, receiver) double receptions.
	Duplicates int
	// BusySlots is the number of slots the bus carried a dominant level
	// (a lower bound proxy for utilisation).
	BusySlots uint64
	// Utilisation is the fraction of slots the bus was not idle.
	Utilisation float64
	// ErrorFrames is the total number of error signals across nodes.
	ErrorFrames uint64
	// MeanLatency is the average delivery latency in bit slots from
	// enqueue to the last receiver's delivery, over fully delivered
	// messages.
	MeanLatency float64
	// MaxLatency is the worst observed delivery latency in bit slots.
	MaxLatency uint64
}

// RunWorkload drives a periodic workload: each station broadcasts a
// sequence-stamped frame every period, where the period realises the
// requested bus load.
func RunWorkload(cfg WorkloadConfig) (*WorkloadResult, error) {
	if cfg.Nodes < 3 {
		return nil, fmt.Errorf("sim: workload needs >= 3 nodes")
	}
	if cfg.Load <= 0 || cfg.Load > 1 {
		return nil, fmt.Errorf("sim: load %g out of (0,1]", cfg.Load)
	}
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("sim: Slots must be positive")
	}
	payload := cfg.PayloadBytes
	if payload == 0 {
		payload = 8
	}

	cluster, err := NewCluster(ClusterOptions{
		Nodes:            cfg.Nodes,
		Policy:           cfg.Policy,
		WarningSwitchOff: cfg.WarningSwitchOff,
	})
	if err != nil {
		return nil, err
	}
	if cfg.BerStar > 0 {
		cluster.Net.AddDisturber(errmodel.NewRandom(cfg.BerStar, cfg.Seed))
	}

	// Estimate the frame duration to derive each station's period:
	// period = nodes * frameSlots / load.
	probe := &frame.Frame{ID: 0x200, Data: make([]byte, payload)}
	enc, err := frame.Encode(probe, cfg.Policy.EOFBits())
	if err != nil {
		return nil, err
	}
	frameSlots := enc.Len() + frame.IntermissionBits
	period := int(float64(cfg.Nodes*frameSlots) / cfg.Load)
	if period < frameSlots {
		period = frameSlots
	}

	res := &WorkloadResult{Config: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	seqs := make([]uint32, cfg.Nodes)
	next := make([]int, cfg.Nodes)
	for i := range next {
		// Staggered start with jitter to avoid permanent phase locking.
		next[i] = (i*period)/cfg.Nodes + rng.Intn(frameSlots)
	}

	type key struct {
		origin int
		seq    uint32
	}
	delivered := make(map[key]map[int]int)
	enqueued := make(map[key]uint64)
	lastDelivery := make(map[key]uint64)

	// Between arrivals nothing but the bus acts, so the network advances
	// in one Run per inter-arrival gap (through the installed engine) and
	// every arrival is checked at exactly its slot.
	for slot := 0; slot < cfg.Slots; {
		stop := cfg.Slots
		for i := 0; i < cfg.Nodes; i++ {
			if slot >= next[i] {
				ctrl := cluster.Nodes[i]
				if (ctrl.Mode() == node.ErrorActive || ctrl.Mode() == node.ErrorPassive) && ctrl.QueueLen() < 4 {
					seqs[i]++
					f := &frame.Frame{
						ID:   uint32(0x200 + i),
						Data: Payload(i, seqs[i], payload),
					}
					if err := ctrl.Enqueue(f); err != nil {
						return nil, err
					}
					enqueued[key{origin: i, seq: seqs[i]}] = cluster.Net.Slot()
					res.Offered++
				}
				next[i] += period
			}
			stop = min(stop, next[i])
		}
		cluster.Net.Run(stop - slot)
		slot = stop
	}
	res.BusySlots = cluster.Net.BusySlots()
	// Drain.
	cluster.RunUntilQuiet(20 * frameSlots)

	for i := 0; i < cfg.Nodes; i++ {
		res.TxSuccess += int(cluster.Nodes[i].TxSuccesses())
		for _, d := range cluster.Deliveries[i] {
			k, ok := PayloadKey(d.Frame)
			if !ok {
				continue
			}
			kk := key{origin: k.Origin, seq: k.Seq}
			if delivered[kk] == nil {
				delivered[kk] = make(map[int]int)
			}
			delivered[kk][i]++
			if d.Slot > lastDelivery[kk] {
				lastDelivery[kk] = d.Slot
			}
			res.Delivered++
		}
		for _, kind := range []node.ErrorKind{node.ErrBit, node.ErrStuff, node.ErrCRC, node.ErrForm, node.ErrAck} {
			res.ErrorFrames += cluster.Nodes[i].ErrorCount(kind)
		}
	}
	correct := func(i int) bool {
		m := cluster.Nodes[i].Mode()
		return m == node.ErrorActive || m == node.ErrorPassive
	}
	// Canonical (origin, seq) order for the aggregation passes below, so
	// the result is a pure function of the seed even if the accounting
	// ever grows order-sensitive fields.
	msgKeys := make([]key, 0, len(delivered))
	for kk := range delivered {
		msgKeys = append(msgKeys, kk)
	}
	sort.Slice(msgKeys, func(i, j int) bool {
		if msgKeys[i].origin != msgKeys[j].origin {
			return msgKeys[i].origin < msgKeys[j].origin
		}
		return msgKeys[i].seq < msgKeys[j].seq
	})
	for _, kk := range msgKeys {
		nodes := delivered[kk]
		got, missing := 0, 0
		for i := 0; i < cfg.Nodes; i++ {
			if i == kk.origin || !correct(i) {
				continue
			}
			c := nodes[i]
			if c == 0 {
				missing++
			} else {
				got++
				if c > 1 {
					res.Duplicates++
				}
			}
		}
		if got > 0 && missing > 0 {
			res.IMOs++
		}
	}
	// Delivery latency over messages that reached all correct receivers.
	var latSum, latCount uint64
	for _, kk := range msgKeys {
		nodes := delivered[kk]
		start, ok := enqueued[kk]
		if !ok {
			continue
		}
		full := true
		for i := 0; i < cfg.Nodes; i++ {
			if i == kk.origin || !correct(i) {
				continue
			}
			if nodes[i] == 0 {
				full = false
				break
			}
		}
		if !full {
			continue
		}
		lat := lastDelivery[kk] - start
		latSum += lat
		latCount++
		if lat > res.MaxLatency {
			res.MaxLatency = lat
		}
	}
	if latCount > 0 {
		res.MeanLatency = float64(latSum) / float64(latCount)
	}
	res.Utilisation = float64(res.TxSuccess*frameSlots) / float64(cfg.Slots)
	return res, nil
}
