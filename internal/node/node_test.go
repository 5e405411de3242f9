package node_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bus"
	"repro/internal/bus/fastpath"
	"repro/internal/core"
	"repro/internal/errmodel"
	"repro/internal/frame"
	"repro/internal/node"
	"repro/internal/sim"
)

func standardCluster(t *testing.T, n int) *sim.Cluster {
	t.Helper()
	return sim.MustCluster(sim.ClusterOptions{Nodes: n, Policy: core.NewStandard()})
}

// Regression: a frame whose CRC ends with five equal bits carries a stuff
// bit after the CRC sequence; receivers must not mistake it for the CRC
// delimiter. (Found via TOTCAN integration testing.)
func TestPostCRCStuffBit(t *testing.T) {
	// Search for a payload whose encoding has a stuff bit annotated at the
	// last CRC bit.
	var hit *frame.Frame
	for b := 0; b < 4096 && hit == nil; b++ {
		f := &frame.Frame{ID: 0x203, Data: []byte{1, byte(b >> 8), 0, 0, byte(b), 1, 1, 3}}
		enc, err := frame.Encode(f, frame.StandardEOFBits)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range enc.Refs {
			if ref.Stuff && ref.Field == frame.FieldCRC && ref.Index == 14 {
				hit = f
				break
			}
		}
	}
	if hit == nil {
		t.Skip("no payload with post-CRC stuff bit found in search range")
	}
	c := standardCluster(t, 3)
	if err := c.Nodes[0].Enqueue(hit); err != nil {
		t.Fatal(err)
	}
	if !c.RunUntilQuiet(2000) {
		t.Fatal("no quiescence")
	}
	for i := 1; i < 3; i++ {
		if n := c.DeliveryCount(i, hit); n != 1 {
			t.Errorf("station %d delivered %d copies, want 1", i, n)
		}
	}
	if got := c.Nodes[0].ErrorCount(node.ErrForm); got != 0 {
		t.Errorf("transmitter saw %d form errors, want 0", got)
	}
}

// A lone transmitter gets no acknowledgement: ACK errors accumulate TEC
// (+8 per attempt) until the node becomes error-passive at 128. There it
// stays: the fault-confinement exception for ACK errors of error-passive
// transmitters keeps a lone node from driving itself to bus-off.
func TestAckErrorEscalatesToErrorPassive(t *testing.T) {
	c := standardCluster(t, 2)
	c.Nodes[1].Crash() // nobody left to acknowledge
	f := &frame.Frame{ID: 1, Data: []byte{1}}
	if err := c.Nodes[0].Enqueue(f); err != nil {
		t.Fatal(err)
	}
	c.Net.Run(40000)
	if got := c.Nodes[0].Mode(); got != node.ErrorPassive {
		tec, _ := c.Nodes[0].Counters()
		t.Errorf("mode = %v (tec=%d), want error-passive", got, tec)
	}
	if tec, _ := c.Nodes[0].Counters(); tec != node.PassiveLimit {
		t.Errorf("TEC = %d, want exactly %d (frozen by the ACK-error exception)", tec, node.PassiveLimit)
	}
	if got := c.Nodes[0].ErrorCount(node.ErrAck); got < 16 {
		t.Errorf("ack errors = %d, want >= 16", got)
	}
	if c.Nodes[0].TxSuccesses() != 0 {
		t.Error("no transmission may succeed without receivers")
	}
}

// The paper's recommended policy: switch the node off at the warning limit
// (96) so it never becomes error-passive.
func TestWarningSwitchOff(t *testing.T) {
	c := sim.MustCluster(sim.ClusterOptions{
		Nodes: 3, Policy: core.NewStandard(), WarningSwitchOff: true,
	})
	c.Nodes[2].SetErrorCounters(0, 95)
	// One receive error pushes REC to 96.
	c.Net.AddDisturber(errmodel.NewScript(&errmodel.Rule{
		Stations: []int{2},
		Count:    1,
		When: func(_ uint64, _ int, v bus.ViewContext) bool {
			return v.Phase == bus.PhaseFrame && v.Field == frame.FieldData
		},
	}))
	f := &frame.Frame{ID: 5, Data: []byte{0xFF, 0x00}}
	if err := c.Nodes[0].Enqueue(f); err != nil {
		t.Fatal(err)
	}
	if !c.RunUntilQuiet(4000) {
		t.Fatal("no quiescence")
	}
	if got := c.Nodes[2].Mode(); got != node.SwitchedOff {
		t.Errorf("node 2 mode = %v, want switched-off", got)
	}
	// The frame still completes for the healthy receiver.
	if n := c.DeliveryCount(1, f); n != 1 {
		t.Errorf("healthy receiver delivered %d, want 1", n)
	}
}

// The paper's Section 1 impairment: an error-passive receiver signals an
// error with a passive (recessive) flag nobody can see; the transmitter
// does not retransmit and the passive node omits the message (AB2
// violated). The paper's fix — switching off before error-passive — makes
// the scenario impossible, so we disable it here.
func TestErrorPassiveReceiverOmission(t *testing.T) {
	c := standardCluster(t, 4)
	victim := 3
	c.Nodes[victim].SetErrorCounters(0, node.PassiveLimit)
	if got := c.Nodes[victim].Mode(); got != node.ErrorPassive {
		t.Fatalf("victim mode = %v, want error-passive", got)
	}
	// Corrupt the victim's view of a stuff bit inside a dominant run so it
	// sees six equal bits: a stuff error detected only by the victim.
	fired := false
	c.Net.AddDisturber(errmodel.NewScript(&errmodel.Rule{
		Stations: []int{victim},
		When: func(_ uint64, _ int, v bus.ViewContext) bool {
			if fired || v.Phase != bus.PhaseFrame || v.Field != frame.FieldData {
				return false
			}
			fired = true
			return true
		},
	}))
	f := &frame.Frame{ID: 0x10, Data: []byte{0x00, 0x00}}
	if err := c.Nodes[0].Enqueue(f); err != nil {
		t.Fatal(err)
	}
	if !c.RunUntilQuiet(4000) {
		t.Fatal("no quiescence")
	}
	// The healthy receivers deliver; the passive victim does not; the
	// transmitter never retransmitted: an inconsistent message omission.
	if n := c.DeliveryCount(1, f); n != 1 {
		t.Errorf("healthy receiver delivered %d, want 1", n)
	}
	if n := c.DeliveryCount(victim, f); n != 0 {
		t.Errorf("error-passive victim delivered %d, want 0", n)
	}
	if got := c.Nodes[0].TxSuccesses(); got != 1 {
		t.Errorf("transmitter successes = %d, want 1 (no retransmission)", got)
	}
}

// An error-active receiver in the same situation forces the
// retransmission: the globalisation of local errors works.
func TestErrorActiveReceiverForcesRetransmission(t *testing.T) {
	c := standardCluster(t, 4)
	victim := 3
	fired := false
	c.Net.AddDisturber(errmodel.NewScript(&errmodel.Rule{
		Stations: []int{victim},
		When: func(_ uint64, _ int, v bus.ViewContext) bool {
			if fired || v.Phase != bus.PhaseFrame || v.Field != frame.FieldData || v.Attempts != 1 {
				return false
			}
			fired = true
			return true
		},
	}))
	f := &frame.Frame{ID: 0x10, Data: []byte{0x00, 0x00}}
	if err := c.Nodes[0].Enqueue(f); err != nil {
		t.Fatal(err)
	}
	if !c.RunUntilQuiet(4000) {
		t.Fatal("no quiescence")
	}
	for i := 1; i < 4; i++ {
		if n := c.DeliveryCount(i, f); n != 1 {
			t.Errorf("station %d delivered %d copies, want 1", i, n)
		}
	}
}

// Same-node transmit queue: frames go out in priority order regardless of
// enqueue order; equal identifiers stay FIFO.
func TestQueuePriorityOrder(t *testing.T) {
	c := standardCluster(t, 2)
	frames := []*frame.Frame{
		{ID: 0x300, Data: []byte{3}},
		{ID: 0x100, Data: []byte{1}},
		{ID: 0x200, Data: []byte{2}},
		{ID: 0x100, Data: []byte{9}}, // same ID as the second: FIFO after it
	}
	for _, f := range frames {
		if err := c.Nodes[0].Enqueue(f); err != nil {
			t.Fatal(err)
		}
	}
	if !c.RunUntilQuiet(4000) {
		t.Fatal("no quiescence")
	}
	got := c.Deliveries[1]
	if len(got) != 4 {
		t.Fatalf("delivered %d frames, want 4", len(got))
	}
	wantIDs := []uint32{0x100, 0x100, 0x200, 0x300}
	wantFirstData := []byte{1, 9, 2, 3}
	for i, d := range got {
		if d.Frame.ID != wantIDs[i] {
			t.Errorf("delivery %d id = %#x, want %#x", i, d.Frame.ID, wantIDs[i])
		}
		if d.Frame.Data[0] != wantFirstData[i] {
			t.Errorf("delivery %d data = %d, want %d", i, d.Frame.Data[0], wantFirstData[i])
		}
	}
}

// A higher-priority frame enqueued while the transmitter sends another
// waits behind the frame on the wire: the accept reports and pops the
// frame that was sent, and the new one goes out next, under either
// engine.
func TestEnqueueDuringTransmissionKeepsFrameOnWire(t *testing.T) {
	for _, fast := range []bool{false, true} {
		t.Run(fmt.Sprintf("fast=%v", fast), func(t *testing.T) {
			var sent, delivered []uint32
			tx := node.New("tx", core.NewStandard(), node.Options{Hooks: node.Hooks{
				OnTxSuccess: func(_ uint64, f *frame.Frame) { sent = append(sent, f.ID) },
			}})
			rx := node.New("rx", core.NewStandard(), node.Options{Hooks: node.Hooks{
				OnDeliver: func(_ uint64, f *frame.Frame) { delivered = append(delivered, f.ID) },
			}})
			net := bus.NewNetwork()
			net.Attach(tx)
			net.Attach(rx)
			if fast {
				fastpath.Install(net)
			}
			if err := tx.Enqueue(&frame.Frame{ID: 0x200, Data: []byte{2}}); err != nil {
				t.Fatal(err)
			}
			net.Run(20)
			if !tx.Transmitting() {
				t.Fatal("0x200 is not on the wire 20 slots in")
			}
			if err := tx.Enqueue(&frame.Frame{ID: 0x100, Data: []byte{1}}); err != nil {
				t.Fatal(err)
			}
			if !net.RunUntil(func() bool { return tx.Idle() && rx.Idle() }, 2000) {
				t.Fatal("no quiescence")
			}
			want := []uint32{0x200, 0x100}
			if !slices.Equal(delivered, want) || !slices.Equal(sent, want) {
				t.Fatalf("delivered %#x, reported sent %#x: want %#x for both", delivered, sent, want)
			}
		})
	}
}

// A data frame wins arbitration against a remote frame with the same
// identifier (dominant RTR), and a standard frame wins against an extended
// frame with the same base identifier.
func TestArbitrationTieBreaks(t *testing.T) {
	t.Run("data beats remote", func(t *testing.T) {
		c := standardCluster(t, 3)
		remote := &frame.Frame{ID: 0x123, Remote: true, DLC: 2}
		data := &frame.Frame{ID: 0x123, Data: []byte{7, 7}}
		if err := c.Nodes[0].Enqueue(remote); err != nil {
			t.Fatal(err)
		}
		if err := c.Nodes[1].Enqueue(data); err != nil {
			t.Fatal(err)
		}
		if !c.RunUntilQuiet(4000) {
			t.Fatal("no quiescence")
		}
		ds := c.Deliveries[2]
		if len(ds) != 2 {
			t.Fatalf("delivered %d, want 2", len(ds))
		}
		if ds[0].Frame.Remote || !ds[1].Frame.Remote {
			t.Errorf("data frame must be delivered before the remote frame")
		}
	})
	t.Run("standard beats extended", func(t *testing.T) {
		c := standardCluster(t, 3)
		ext := &frame.Frame{ID: 0x123 << 18, Format: frame.Extended, Data: []byte{1}}
		std := &frame.Frame{ID: 0x123, Data: []byte{2}}
		if err := c.Nodes[0].Enqueue(ext); err != nil {
			t.Fatal(err)
		}
		if err := c.Nodes[1].Enqueue(std); err != nil {
			t.Fatal(err)
		}
		if !c.RunUntilQuiet(4000) {
			t.Fatal("no quiescence")
		}
		ds := c.Deliveries[2]
		if len(ds) != 2 {
			t.Fatalf("delivered %d, want 2", len(ds))
		}
		if ds[0].Frame.Format != frame.Standard {
			t.Error("standard frame must win the arbitration")
		}
	})
}

// DisableRetransmission (single-shot mode): an error drops the frame
// instead of retrying.
func TestDisableRetransmission(t *testing.T) {
	hooks := func(int) node.Hooks { return node.Hooks{} }
	_ = hooks
	n0 := node.New("tx", core.NewStandard(), node.Options{DisableRetransmission: true})
	n1 := node.New("rx", core.NewStandard(), node.Options{})
	net := bus.NewNetwork()
	net.Attach(n0)
	net.Attach(n1)
	// Receiver sees an error mid-frame (its view flipped once): it rejects
	// and flags; the transmitter drops the frame in single-shot mode.
	fired := false
	net.AddDisturber(errmodel.NewScript(&errmodel.Rule{
		Stations: []int{1},
		When: func(_ uint64, _ int, v bus.ViewContext) bool {
			if fired || v.Phase != bus.PhaseFrame || v.Field != frame.FieldData {
				return false
			}
			fired = true
			return true
		},
	}))
	if err := n0.Enqueue(&frame.Frame{ID: 2, Data: []byte{0x00}}); err != nil {
		t.Fatal(err)
	}
	net.Run(2000)
	if n0.QueueLen() != 0 {
		t.Error("single-shot transmitter must drop the frame after the error")
	}
	if n0.TxSuccesses() != 0 {
		t.Error("the errored frame must not count as a success")
	}
	if n1.Delivered() != 0 {
		t.Error("the receiver must not deliver the errored frame")
	}
}

// Overload flags: a node disturbed during intermission raises an overload
// condition; the bus recovers and traffic continues.
func TestOverloadRecovery(t *testing.T) {
	c := standardCluster(t, 3)
	c.Net.AddDisturber(errmodel.NewScript(errmodel.AtPhase([]int{1}, bus.PhaseIntermission, 0)))
	f1 := &frame.Frame{ID: 1, Data: []byte{1}}
	f2 := &frame.Frame{ID: 2, Data: []byte{2}}
	if err := c.Nodes[0].Enqueue(f1); err != nil {
		t.Fatal(err)
	}
	if err := c.Nodes[0].Enqueue(f2); err != nil {
		t.Fatal(err)
	}
	if !c.RunUntilQuiet(4000) {
		t.Fatal("no quiescence")
	}
	for _, f := range []*frame.Frame{f1, f2} {
		for i := 1; i < 3; i++ {
			if n := c.DeliveryCount(i, f); n != 1 {
				t.Errorf("station %d delivered %d copies of %v, want 1", i, n, f)
			}
		}
	}
	if got := c.Nodes[1].ErrorCount(node.ErrOverload); got == 0 {
		t.Error("node 1 must have raised an overload condition")
	}
}

// An error-passive transmitter still works on a healthy bus (suspend
// transmission merely delays it).
func TestErrorPassiveTransmitterStillDelivers(t *testing.T) {
	c := standardCluster(t, 3)
	c.Nodes[0].SetErrorCounters(node.PassiveLimit, 0)
	f1 := &frame.Frame{ID: 1, Data: []byte{1}}
	f2 := &frame.Frame{ID: 2, Data: []byte{2}}
	if err := c.Nodes[0].Enqueue(f1); err != nil {
		t.Fatal(err)
	}
	if err := c.Nodes[0].Enqueue(f2); err != nil {
		t.Fatal(err)
	}
	if !c.RunUntilQuiet(6000) {
		t.Fatal("no quiescence")
	}
	for _, f := range []*frame.Frame{f1, f2} {
		if n := c.DeliveryCount(1, f); n != 1 {
			t.Errorf("receiver delivered %d copies of %v, want 1", n, f)
		}
	}
}

// Successful traffic decrements the error counters back towards zero.
func TestCountersDecrementOnSuccess(t *testing.T) {
	c := standardCluster(t, 3)
	c.Nodes[0].SetErrorCounters(24, 0)
	c.Nodes[1].SetErrorCounters(0, 24)
	for i := 0; i < 10; i++ {
		if err := c.Nodes[0].Enqueue(&frame.Frame{ID: uint32(i), Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if !c.RunUntilQuiet(8000) {
		t.Fatal("no quiescence")
	}
	tec, _ := c.Nodes[0].Counters()
	if tec != 14 {
		t.Errorf("transmitter TEC = %d, want 14 (24 - 10 successes)", tec)
	}
	_, rec := c.Nodes[1].Counters()
	if rec != 14 {
		t.Errorf("receiver REC = %d, want 14", rec)
	}
}

// Crash makes a node fail silently: it stops participating and the rest of
// the bus keeps working.
func TestCrashedNodeFailsSilently(t *testing.T) {
	c := standardCluster(t, 4)
	c.Nodes[3].Crash()
	if !c.Nodes[3].Crashed() {
		t.Fatal("Crashed() must report true")
	}
	f := &frame.Frame{ID: 9, Data: []byte{9}}
	if err := c.Nodes[0].Enqueue(f); err != nil {
		t.Fatal(err)
	}
	if !c.RunUntilQuiet(2000) {
		t.Fatal("no quiescence")
	}
	if n := c.DeliveryCount(1, f); n != 1 {
		t.Errorf("station 1 delivered %d, want 1", n)
	}
	if n := c.DeliveryCount(3, f); n != 0 {
		t.Errorf("crashed station delivered %d, want 0", n)
	}
}

func TestEnqueueValidation(t *testing.T) {
	n := node.New("x", core.NewStandard(), node.Options{})
	if err := n.Enqueue(&frame.Frame{ID: 0x800}); err == nil {
		t.Error("invalid frame must be rejected at Enqueue")
	}
	if n.QueueLen() != 0 {
		t.Error("rejected frame must not be queued")
	}
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[node.Mode]string{
		node.ErrorActive:  "error-active",
		node.ErrorPassive: "error-passive",
		node.BusOff:       "bus-off",
		node.SwitchedOff:  "switched-off",
	} {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestErrorKindStrings(t *testing.T) {
	kinds := map[node.ErrorKind]string{
		node.ErrBit: "bit", node.ErrStuff: "stuff", node.ErrCRC: "crc",
		node.ErrForm: "form", node.ErrAck: "ack", node.ErrOverload: "overload",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("ErrorKind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

// A controller that disconnects inside an end-of-frame episode drops it:
// outside an episode the episode value is zero, which EOFRel relies on
// to read 0 there. EOF bit 3 is reached slot by slot: RunUntil may batch
// across a position inside an episode.
func TestDisconnectInsideEpisodeDropsIt(t *testing.T) {
	for _, disconnect := range []func(*node.Controller){(*node.Controller).Crash, (*node.Controller).ForceBusOff} {
		c := sim.MustCluster(sim.ClusterOptions{Nodes: 2, Policy: core.MustMajorCAN(5)})
		if err := c.Nodes[0].Enqueue(&frame.Frame{ID: 0x123, Data: []byte{0xCA, 0xFE}}); err != nil {
			t.Fatal(err)
		}
		rx := c.Nodes[1]
		for i := 0; i < 2000 && rx.EOFRel() != 3; i++ {
			c.Net.Step()
		}
		if rx.EOFRel() != 3 {
			t.Fatal("the receiver never reached EOF bit 3")
		}
		disconnect(rx)
		if rx.InEpisode() || rx.EOFRel() != 0 || rx.View().EOFRel != 0 {
			t.Errorf("disconnected inside an episode: in episode %v, EOFRel %d, view EOFRel %d, want false, 0, 0",
				rx.InEpisode(), rx.EOFRel(), rx.View().EOFRel)
		}
	}
}
