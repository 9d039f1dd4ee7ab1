package topology

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustTree(t *testing.T, edges ...[2]NodeID) *Tree {
	t.Helper()
	tr := New()
	for _, e := range edges {
		if err := tr.AddNode(e[0], e[1]); err != nil {
			t.Fatalf("AddNode(%d,%d): %v", e[0], e[1], err)
		}
	}
	return tr
}

func TestNewTree(t *testing.T) {
	tr := New()
	if tr.Len() != 1 || !tr.Has(GatewayID) {
		t.Fatalf("new tree should hold only the gateway, got %d nodes", tr.Len())
	}
	if p, err := tr.Parent(GatewayID); err != nil || p != None {
		t.Errorf("gateway parent = %d, %v", p, err)
	}
	if d, _ := tr.Depth(GatewayID); d != 0 {
		t.Errorf("gateway depth = %d, want 0", d)
	}
	if l, _ := tr.LinkLayer(GatewayID); l != 1 {
		t.Errorf("gateway link layer = %d, want 1", l)
	}
}

func TestAddNodeErrors(t *testing.T) {
	tr := New()
	if err := tr.AddNode(1, 99); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("want ErrUnknownNode, got %v", err)
	}
	if err := tr.AddNode(1, GatewayID); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddNode(1, GatewayID); !errors.Is(err, ErrDuplicateNode) {
		t.Errorf("want ErrDuplicateNode, got %v", err)
	}
}

func TestDepthsAndLayers(t *testing.T) {
	tr := mustTree(t, [2]NodeID{1, 0}, [2]NodeID{2, 1}, [2]NodeID{3, 2})
	cases := []struct {
		id            NodeID
		depth, linkLy int
	}{
		{0, 0, 1}, {1, 1, 2}, {2, 2, 3}, {3, 3, 4},
	}
	for _, c := range cases {
		if d, _ := tr.Depth(c.id); d != c.depth {
			t.Errorf("Depth(%d) = %d, want %d", c.id, d, c.depth)
		}
		if l, _ := tr.LinkLayer(c.id); l != c.linkLy {
			t.Errorf("LinkLayer(%d) = %d, want %d", c.id, l, c.linkLy)
		}
	}
	if tr.MaxLayer() != 3 {
		t.Errorf("MaxLayer = %d, want 3", tr.MaxLayer())
	}
	if ml, _ := tr.SubtreeMaxLayer(1); ml != 3 {
		t.Errorf("SubtreeMaxLayer(1) = %d, want 3", ml)
	}
	if ml, _ := tr.SubtreeMaxLayer(3); ml != 3 {
		t.Errorf("SubtreeMaxLayer(3) = %d, want 3 (leaf's own layer)", ml)
	}
	if _, err := tr.SubtreeMaxLayer(42); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("want ErrUnknownNode, got %v", err)
	}
}

func TestSubtreeQueries(t *testing.T) {
	tr := Fig1()
	sub, err := tr.Subtree(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{1, 4, 5, 8, 9}
	if len(sub) != len(want) {
		t.Fatalf("Subtree(1) = %v, want %v", sub, want)
	}
	for i := range want {
		if sub[i] != want[i] {
			t.Fatalf("Subtree(1) = %v, want %v", sub, want)
		}
	}
	if n, _ := tr.SubtreeSize(3); n != 5 {
		t.Errorf("SubtreeSize(3) = %d, want 5", n)
	}
	if n, _ := tr.SubtreeSize(2); n != 1 {
		t.Errorf("SubtreeSize(2) = %d, want 1", n)
	}
	path, err := tr.PathToGateway(8)
	if err != nil {
		t.Fatal(err)
	}
	wantPath := []NodeID{8, 5, 1, 0}
	for i := range wantPath {
		if path[i] != wantPath[i] {
			t.Fatalf("PathToGateway(8) = %v, want %v", path, wantPath)
		}
	}
	anc, _ := tr.Ancestors(8)
	if len(anc) != 3 || anc[0] != 5 {
		t.Errorf("Ancestors(8) = %v", anc)
	}
	if _, err := tr.Subtree(99); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("want ErrUnknownNode, got %v", err)
	}
}

func TestRemoveLeaf(t *testing.T) {
	tr := mustTree(t, [2]NodeID{1, 0}, [2]NodeID{2, 1})
	if err := tr.RemoveLeaf(1); !errors.Is(err, ErrNotLeaf) {
		t.Errorf("want ErrNotLeaf, got %v", err)
	}
	if err := tr.RemoveLeaf(GatewayID); !errors.Is(err, ErrGateway) {
		t.Errorf("want ErrGateway, got %v", err)
	}
	if err := tr.RemoveLeaf(2); err != nil {
		t.Fatal(err)
	}
	if tr.Has(2) || !tr.IsLeaf(1) {
		t.Error("RemoveLeaf left stale state")
	}
	if err := tr.RemoveLeaf(2); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("want ErrUnknownNode, got %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestReparent(t *testing.T) {
	tr := mustTree(t, [2]NodeID{1, 0}, [2]NodeID{2, 0}, [2]NodeID{3, 1}, [2]NodeID{4, 3})
	if err := tr.Reparent(3, 2); err != nil {
		t.Fatal(err)
	}
	if p, _ := tr.Parent(3); p != 2 {
		t.Errorf("parent(3) = %d, want 2", p)
	}
	if d, _ := tr.Depth(4); d != 3 {
		t.Errorf("depth(4) = %d after reparent, want 3", d)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	if err := tr.Reparent(2, 4); !errors.Is(err, ErrCycle) {
		t.Errorf("want ErrCycle, got %v", err)
	}
	if err := tr.Reparent(GatewayID, 1); !errors.Is(err, ErrGateway) {
		t.Errorf("want ErrGateway, got %v", err)
	}
	if err := tr.Reparent(42, 1); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("want ErrUnknownNode, got %v", err)
	}
	if err := tr.Reparent(3, 42); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("want ErrUnknownNode, got %v", err)
	}
}

func TestNodeSetQueries(t *testing.T) {
	tr := Fig1()
	if got := tr.NodesAtDepth(1); len(got) != 3 {
		t.Errorf("NodesAtDepth(1) = %v, want 3 nodes", got)
	}
	nonLeaves := tr.NonLeaves()
	want := []NodeID{0, 1, 3, 5, 7}
	if len(nonLeaves) != len(want) {
		t.Fatalf("NonLeaves = %v, want %v", nonLeaves, want)
	}
	for i := range want {
		if nonLeaves[i] != want[i] {
			t.Fatalf("NonLeaves = %v, want %v", nonLeaves, want)
		}
	}
	if !tr.IsLeaf(8) || tr.IsLeaf(5) || tr.IsLeaf(99) {
		t.Error("IsLeaf misclassification")
	}
	if tr.Children(99) != nil {
		t.Error("Children of unknown node should be nil")
	}
	if s := tr.String(); s == "" {
		t.Error("String() is empty")
	}
	if _, err := tr.Depth(99); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("want ErrUnknownNode, got %v", err)
	}
	if _, err := tr.PathToGateway(99); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("want ErrUnknownNode, got %v", err)
	}
}

func TestClone(t *testing.T) {
	tr := Fig1()
	c := tr.Clone()
	if err := c.AddNode(100, 2); err != nil {
		t.Fatal(err)
	}
	if tr.Has(100) {
		t.Error("mutating clone affected original")
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCannedTopologies(t *testing.T) {
	cases := []struct {
		name   string
		tr     *Tree
		nodes  int
		layers int
	}{
		{"Fig1", Fig1(), 12, 3},
		{"Testbed50", Testbed50(), 50, 5},
		{"Deep81", Deep81(), 81, 10},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.tr.Len() != c.nodes {
				t.Errorf("nodes = %d, want %d", c.tr.Len(), c.nodes)
			}
			if c.tr.MaxLayer() != c.layers {
				t.Errorf("layers = %d, want %d", c.tr.MaxLayer(), c.layers)
			}
			if err := c.tr.Validate(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestGenerateSpecValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []GenSpec{
		{Nodes: 1, Layers: 1},
		{Nodes: 5, Layers: 0},
		{Nodes: 3, Layers: 5},
		{Nodes: 5, Layers: 2, MaxChildren: -1},
	}
	for _, s := range bad {
		if _, err := Generate(s, rng); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
	// Fan-out cap too tight: 1 child max means a pure chain; 10 nodes with
	// layer budget 3 cannot fit.
	if _, err := Generate(GenSpec{Nodes: 10, Layers: 3, MaxChildren: 1}, rng); err == nil {
		t.Error("infeasible fan-out accepted")
	}
}

func TestGenerateProperties(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := GenSpec{Nodes: 10 + rng.Intn(60), Layers: 2 + rng.Intn(5)}
		tr, err := Generate(spec, rng)
		if err != nil {
			return false
		}
		return tr.Len() == spec.Nodes &&
			tr.MaxLayer() == spec.Layers &&
			tr.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGenerateRespectsFanOutCap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr, err := Generate(GenSpec{Nodes: 40, Layers: 4, MaxChildren: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range tr.Nodes() {
		if n := len(tr.Children(id)); n > 3 {
			t.Errorf("node %d has %d children, cap 3", id, n)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := Testbed50()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() || back.MaxLayer() != orig.MaxLayer() {
		t.Fatalf("round trip mismatch: %d/%d nodes, %d/%d layers",
			back.Len(), orig.Len(), back.MaxLayer(), orig.MaxLayer())
	}
	for _, id := range orig.Nodes() {
		if id == GatewayID {
			continue
		}
		po, _ := orig.Parent(id)
		pb, err := back.Parent(id)
		if err != nil || po != pb {
			t.Fatalf("parent(%d) = %d/%d, err=%v", id, pb, po, err)
		}
	}
}

func TestJSONRejectsGarbage(t *testing.T) {
	var tr Tree
	if err := json.Unmarshal([]byte(`{"nodes":3,"edges":[{"child":1,"parent":9}]}`), &tr); err == nil {
		t.Error("unreachable edge accepted")
	}
	if err := json.Unmarshal([]byte(`{"nodes":5,"edges":[{"child":1,"parent":0}]}`), &tr); err == nil {
		t.Error("node-count mismatch accepted")
	}
	if err := json.Unmarshal([]byte(`{`), &tr); err == nil {
		t.Error("syntactically invalid JSON accepted")
	}
}

func TestDirectionString(t *testing.T) {
	if Uplink.String() != "uplink" || Downlink.String() != "downlink" {
		t.Error("Direction.String wrong")
	}
	if Direction(9).String() == "" {
		t.Error("unknown direction should still render")
	}
	dirs := Directions()
	if dirs[0] != Uplink || dirs[1] != Downlink {
		t.Error("Directions order wrong")
	}
	l := Link{Child: 4, Direction: Uplink}
	if l.String() == "" {
		t.Error("Link.String empty")
	}
}

func TestDenseIndexLifecycle(t *testing.T) {
	tr := mustTree(t, [2]NodeID{1, 0}, [2]NodeID{2, 0}, [2]NodeID{3, 1}, [2]NodeID{4, 1})
	if got := tr.Index(GatewayID); got != 0 {
		t.Fatalf("gateway index = %d, want 0", got)
	}
	if tr.NumNodes() != 5 || tr.IndexCap() != 5 {
		t.Fatalf("NumNodes=%d IndexCap=%d, want 5/5", tr.NumNodes(), tr.IndexCap())
	}
	for i, id := range []NodeID{0, 1, 2, 3, 4} {
		if tr.Index(id) != i || tr.NodeAt(i) != id {
			t.Fatalf("node %d: Index=%d NodeAt(%d)=%d", id, tr.Index(id), i, tr.NodeAt(i))
		}
	}
	if tr.Index(99) != -1 || tr.NodeAt(99) != None || tr.NodeAt(-1) != None {
		t.Error("unknown lookups must return -1/None")
	}

	// Reparent must not move indices.
	if err := tr.Reparent(3, 2); err != nil {
		t.Fatal(err)
	}
	if tr.Index(3) != 3 {
		t.Fatalf("index of 3 changed across Reparent: %d", tr.Index(3))
	}

	// RemoveLeaf frees the slot; the next AddNode reuses the lowest one.
	if err := tr.RemoveLeaf(3); err != nil {
		t.Fatal(err)
	}
	if err := tr.RemoveLeaf(2); err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 3 || tr.IndexCap() != 5 {
		t.Fatalf("after removals NumNodes=%d IndexCap=%d, want 3/5", tr.NumNodes(), tr.IndexCap())
	}
	if tr.NodeAt(2) != None || tr.NodeAt(3) != None {
		t.Error("freed slots must read None")
	}
	if err := tr.AddNode(7, 1); err != nil {
		t.Fatal(err)
	}
	if got := tr.Index(7); got != 2 {
		t.Fatalf("reused index = %d, want lowest free slot 2", got)
	}
	if err := tr.AddNode(8, 1); err != nil {
		t.Fatal(err)
	}
	if got := tr.Index(8); got != 3 {
		t.Fatalf("second reuse index = %d, want 3", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate after index churn: %v", err)
	}

	// Clone preserves indices exactly.
	c := tr.Clone()
	for _, id := range tr.Nodes() {
		if c.Index(id) != tr.Index(id) {
			t.Fatalf("clone index of %d = %d, want %d", id, c.Index(id), tr.Index(id))
		}
	}
	if c.IndexCap() != tr.IndexCap() {
		t.Fatalf("clone IndexCap %d != %d", c.IndexCap(), tr.IndexCap())
	}
}

func TestDenseSnapshot(t *testing.T) {
	tr := Fig1()
	if err := tr.RemoveLeaf(9); err != nil { // punch a hole in index space
		t.Fatal(err)
	}
	d := tr.Dense()
	if len(d.ChildOff) != tr.IndexCap()+1 {
		t.Fatalf("ChildOff length %d, want %d", len(d.ChildOff), tr.IndexCap()+1)
	}
	for i := 0; i < tr.IndexCap(); i++ {
		id := tr.NodeAt(i)
		if d.Node[i] != id {
			t.Fatalf("Node[%d]=%d, want %d", i, d.Node[i], id)
		}
		kids := d.Children[d.ChildOff[i]:d.ChildOff[i+1]]
		if id == None {
			if len(kids) != 0 || d.Parent[i] != -1 || d.Depth[i] != -1 {
				t.Fatalf("freed slot %d not vacant in snapshot", i)
			}
			continue
		}
		want := tr.Children(id)
		if len(kids) != len(want) {
			t.Fatalf("node %d: %d children in snapshot, want %d", id, len(kids), len(want))
		}
		for j, ci := range kids {
			if tr.NodeAt(int(ci)) != want[j] {
				t.Fatalf("node %d child %d: snapshot %d, want %d", id, j, tr.NodeAt(int(ci)), want[j])
			}
		}
		dep, _ := tr.Depth(id)
		if int(d.Depth[i]) != dep {
			t.Fatalf("node %d depth %d, want %d", id, d.Depth[i], dep)
		}
		p, _ := tr.Parent(id)
		if p == None {
			if d.Parent[i] != -1 {
				t.Fatalf("gateway parent %d, want -1", d.Parent[i])
			}
		} else if tr.NodeAt(int(d.Parent[i])) != p {
			t.Fatalf("node %d parent: snapshot %d, want %d", id, tr.NodeAt(int(d.Parent[i])), p)
		}
	}
}

func TestEncodeJSONMatchesMarshal(t *testing.T) {
	tr := Testbed50()
	var buf bytes.Buffer
	if err := tr.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("EncodeJSON output does not unmarshal: %v", err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip lost nodes: %d != %d", back.Len(), tr.Len())
	}
	for _, id := range tr.Nodes() {
		wp, _ := tr.Parent(id)
		gp, _ := back.Parent(id)
		if wp != gp {
			t.Fatalf("node %d parent %d != %d after round trip", id, gp, wp)
		}
	}
	// Semantically identical to MarshalJSON output.
	direct, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(buf.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(direct, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("EncodeJSON and MarshalJSON disagree")
	}
}

func TestGenerateScaleProperties(t *testing.T) {
	spec := GenSpec{Nodes: 2000, Layers: 8, MaxChildren: 6}
	tr, err := GenerateScale(spec, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != spec.Nodes {
		t.Fatalf("generated %d nodes, want %d", tr.Len(), spec.Nodes)
	}
	if tr.MaxLayer() != spec.Layers {
		t.Fatalf("max layer %d, want %d", tr.MaxLayer(), spec.Layers)
	}
	for _, id := range tr.Nodes() {
		if n := len(tr.Children(id)); n > spec.MaxChildren {
			t.Fatalf("node %d fan-out %d exceeds cap %d", id, n, spec.MaxChildren)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Deterministic for a fixed seed.
	tr2, err := GenerateScale(spec, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(tr)
	b, _ := json.Marshal(tr2)
	if !bytes.Equal(a, b) {
		t.Error("GenerateScale not deterministic for a fixed seed")
	}
}

func TestGenerateScaleCapTooTight(t *testing.T) {
	// 1 child per node forces a pure chain; more nodes than layers+1 must fail.
	if _, err := GenerateScale(GenSpec{Nodes: 10, Layers: 3, MaxChildren: 1}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("impossible spec accepted")
	}
}

// TestNodesSortedCache drives the sorted ID list through out-of-order
// adds, removals, reparents and clones: Nodes must always equal the sorted
// key set, and mutating its result must not reach the tree.
func TestNodesSortedCache(t *testing.T) {
	tr := mustTree(t, [2]NodeID{5, 0}, [2]NodeID{2, 0}, [2]NodeID{9, 5}, [2]NodeID{1, 2}, [2]NodeID{7, 9})
	check := func(when string, want ...NodeID) {
		t.Helper()
		if got := tr.Nodes(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Nodes() = %v, want %v", when, got, want)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("after adds", 0, 1, 2, 5, 7, 9)
	if err := tr.Reparent(9, 2); err != nil {
		t.Fatal(err)
	}
	check("after reparent", 0, 1, 2, 5, 7, 9)
	if err := tr.RemoveLeaf(7); err != nil {
		t.Fatal(err)
	}
	if err := tr.RemoveLeaf(1); err != nil {
		t.Fatal(err)
	}
	check("after removals", 0, 2, 5, 9)
	if err := tr.AddNode(3, 5); err != nil {
		t.Fatal(err)
	}
	check("after re-add", 0, 2, 3, 5, 9)
	tr.Nodes()[0] = 42
	check("after caller mutation", 0, 2, 3, 5, 9)
	c := tr.Clone()
	if err := c.AddNode(4, 0); err != nil {
		t.Fatal(err)
	}
	check("after clone mutation", 0, 2, 3, 5, 9)
	if got := c.Nodes(); !reflect.DeepEqual(got, []NodeID{0, 2, 3, 4, 5, 9}) {
		t.Fatalf("clone Nodes() = %v", got)
	}
}
