package agent

import (
	"testing"

	"github.com/harpnet/harp/internal/coap"
	"github.com/harpnet/harp/internal/proto"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/traffic"
	"github.com/harpnet/harp/internal/transport"
)

// sentMsg is one message a recordingNet was asked to send.
type sentMsg struct {
	from, to topology.NodeID
	msg      coap.Message
}

// recordingNet is a Network that delivers nothing: it records every send,
// so a test can hand messages to agents one at a time and see what each
// one provokes.
type recordingNet struct{ sent []sentMsg }

func (r *recordingNet) Send(from, to topology.NodeID, msg coap.Message) error {
	r.sent = append(r.sent, sentMsg{from: from, to: to, msg: msg})
	return nil
}

func (r *recordingNet) Register(topology.NodeID, transport.Handler) {}

// startFig1Undelivered deploys Fig. 1 on a recordingNet and starts it, so
// nodes 5 and 7, whose children are all leaves, have sent their interface
// reports and nothing has been delivered. It returns the fleet, the net
// and node 7's report to its parent 3.
func startFig1Undelivered(t *testing.T) (*Fleet, *recordingNet, coap.Message) {
	t.Helper()
	tree := topology.Fig1()
	tasks, err := traffic.UniformEcho(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	demand, err := traffic.Compute(tree, tasks)
	if err != nil {
		t.Fatal(err)
	}
	net := &recordingNet{}
	fleet, err := Deploy(tree, testFrame(), demand, net)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Start()
	for _, s := range net.sent {
		if s.from == 7 && s.to == 3 && s.msg.Path() == proto.PathInterface {
			return fleet, net, s.msg
		}
	}
	t.Fatalf("node 7 sent no interface report on start: %+v", net.sent)
	return nil, nil, coap.Message{}
}

// A stray interface report at a leaf (here node 7's report, routed to leaf
// 4) must be ignored: a leaf keeps no child-interface maps, and storing
// into them used to panic.
func TestStrayInterfaceReportAtLeafIgnored(t *testing.T) {
	fleet, net, report := startFig1Undelivered(t)
	leaf, _ := fleet.Node(4)
	sent := len(net.sent)
	leaf.Handle(7, report)
	if len(net.sent) != sent {
		t.Errorf("leaf answered a stray report with %d messages", len(net.sent)-sent)
	}
}

// A stray interface report at a parent must not stand in for a real
// child's: node 1 waits for its one non-leaf child (5), and node 7's
// report must neither make it compose nor leave an entry behind. Node 1
// forwards only once 5's own report arrives.
func TestStrayInterfaceReportAtParentIgnored(t *testing.T) {
	fleet, net, report := startFig1Undelivered(t)
	parent, _ := fleet.Node(1)
	forwards := func() int {
		k := 0
		for _, s := range net.sent {
			if s.from == 1 && s.to == topology.GatewayID && s.msg.Path() == proto.PathInterface {
				k++
			}
		}
		return k
	}
	parent.Handle(7, report)
	if k := forwards(); k != 0 {
		t.Fatalf("node 1 forwarded %d reports after a stray one, before child 5 reported", k)
	}
	var own coap.Message
	for _, s := range net.sent {
		if s.from == 5 && s.to == 1 && s.msg.Path() == proto.PathInterface {
			own = s.msg
		}
	}
	parent.Handle(5, own)
	if k := forwards(); k != 1 {
		t.Fatalf("node 1 forwarded %d reports after child 5 reported, want 1", k)
	}
	for _, d := range topology.Directions() {
		if _, ok := parent.dir(d).childIfaces[7]; ok {
			t.Errorf("%v: node 1 kept the stray report of non-child 7", d)
		}
	}
}
