// Package topology models the routing tree of an industrial wireless
// network: a gateway at the root, relay/sensor/actuator nodes below it, and
// directed links between each node and its parent. It matches the network
// model of the HARP paper (§II-A): each link carries a *layer* attribute
// equal to the child endpoint's hop count to the gateway, and subtrees are
// the unit at which HARP partitions resources.
package topology

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node. The gateway is always GatewayID. IDs need not be
// dense, but generators in this package emit dense IDs for readability.
type NodeID int

// GatewayID is the conventional identifier of the gateway (tree root).
const GatewayID NodeID = 0

// None is the sentinel "no node" value (e.g. the gateway's parent).
const None NodeID = -1

// Direction distinguishes the two directed links between a node and its
// parent. HARP handles the directions symmetrically but in disjoint
// super-partitions of the slotframe.
type Direction uint8

const (
	// Uplink is the child-to-parent direction (sensor data toward gateway).
	Uplink Direction = iota
	// Downlink is the parent-to-child direction (control traffic).
	Downlink
)

// Directions lists both directions in canonical order.
func Directions() [2]Direction { return [2]Direction{Uplink, Downlink} }

// String names the traffic direction (uplink or downlink).
func (d Direction) String() string {
	switch d {
	case Uplink:
		return "uplink"
	case Downlink:
		return "downlink"
	default:
		return fmt.Sprintf("direction(%d)", uint8(d))
	}
}

// Link is a directed edge of the tree. It is identified by the child
// endpoint (each non-gateway node has exactly one parent) plus the
// direction. For Uplink the child is the sender; for Downlink the receiver.
type Link struct {
	Child     NodeID
	Direction Direction
}

// String renders the link as direction[child].
func (l Link) String() string { return fmt.Sprintf("%s[%d]", l.Direction, l.Child) }

// node is the internal per-node record.
type node struct {
	id       NodeID
	parent   NodeID
	children []NodeID
	depth    int // hop count to gateway; 0 for the gateway
}

// Tree is a rooted routing tree. The zero value is not usable; construct
// with New. Tree is not safe for concurrent mutation; concurrent reads are
// safe once construction is complete.
//
// Every node also carries a stable dense index in [0, IndexCap()): the
// gateway is always index 0, AddNode assigns the lowest free slot, and the
// index survives Reparent (node identity, not position, owns the slot).
// Downstream layers size flat slices by IndexCap and address per-node state
// by Index instead of map lookups.
type Tree struct {
	nodes map[NodeID]*node
	order []NodeID // dense index -> NodeID; None marks a freed slot
	index map[NodeID]int32
	free  []int32 // freed slots, reused lowest-first
	// ids holds every node ID in ascending order, kept up to date by
	// AddNode and RemoveLeaf (Reparent keeps the ID set), so Nodes is a
	// copy instead of a map walk plus sort and reads stay read-only.
	ids []NodeID
}

// Errors reported by tree mutations and queries.
var (
	ErrDuplicateNode = errors.New("topology: node already exists")
	ErrUnknownNode   = errors.New("topology: unknown node")
	ErrNotLeaf       = errors.New("topology: node has children")
	ErrCycle         = errors.New("topology: reparenting would create a cycle")
	ErrGateway       = errors.New("topology: operation not valid for the gateway")
)

// New returns a tree containing only the gateway.
func New() *Tree {
	t := &Tree{nodes: make(map[NodeID]*node), index: make(map[NodeID]int32)}
	t.nodes[GatewayID] = &node{id: GatewayID, parent: None}
	t.order = append(t.order, GatewayID)
	t.index[GatewayID] = 0
	t.ids = append(t.ids, GatewayID)
	return t
}

// assignIndex gives id the lowest free dense slot.
func (t *Tree) assignIndex(id NodeID) {
	if len(t.free) > 0 {
		// The free list is kept sorted descending so the lowest slot pops
		// from the tail in O(1).
		slot := t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
		t.order[slot] = id
		t.index[id] = slot
		return
	}
	t.index[id] = int32(len(t.order))
	t.order = append(t.order, id)
}

// releaseIndex returns id's dense slot to the free list.
func (t *Tree) releaseIndex(id NodeID) {
	slot := t.index[id]
	t.order[slot] = None
	delete(t.index, id)
	t.free = append(t.free, slot)
	// Insertion-sort the new slot into the descending free list; churn
	// removes few nodes at a time, so the list stays short.
	for i := len(t.free) - 1; i > 0 && t.free[i] > t.free[i-1]; i-- {
		t.free[i], t.free[i-1] = t.free[i-1], t.free[i]
	}
}

// AddNode attaches a new node under parent. The new node's depth (and hence
// the layer of its links) is derived from the parent.
func (t *Tree) AddNode(id NodeID, parent NodeID) error {
	if _, ok := t.nodes[id]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateNode, id)
	}
	p, ok := t.nodes[parent]
	if !ok {
		return fmt.Errorf("%w: parent %d", ErrUnknownNode, parent)
	}
	t.nodes[id] = &node{id: id, parent: parent, depth: p.depth + 1}
	p.children = append(p.children, id)
	t.assignIndex(id)
	// Generators add IDs in ascending order, so the common case appends.
	at := sort.Search(len(t.ids), func(i int) bool { return t.ids[i] > id })
	t.ids = append(t.ids, 0)
	copy(t.ids[at+1:], t.ids[at:])
	t.ids[at] = id
	return nil
}

// RemoveLeaf detaches a leaf node (a node-leave event). Removing an interior
// node is rejected: callers must first reparent or remove its descendants,
// mirroring how a real network handles the orphaned subtree.
func (t *Tree) RemoveLeaf(id NodeID) error {
	n, ok := t.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if id == GatewayID {
		return ErrGateway
	}
	if len(n.children) > 0 {
		return fmt.Errorf("%w: %d", ErrNotLeaf, id)
	}
	p := t.nodes[n.parent]
	p.children = removeID(p.children, id)
	delete(t.nodes, id)
	t.releaseIndex(id)
	at := sort.Search(len(t.ids), func(i int) bool { return t.ids[i] >= id })
	t.ids = append(t.ids[:at], t.ids[at+1:]...)
	return nil
}

// Reparent moves a node (with its whole subtree) under a new parent — the
// topology-change event triggered when a node selects a more reliable
// parent. Depths of all moved nodes are recomputed.
func (t *Tree) Reparent(id, newParent NodeID) error {
	n, ok := t.nodes[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if id == GatewayID {
		return ErrGateway
	}
	np, ok := t.nodes[newParent]
	if !ok {
		return fmt.Errorf("%w: new parent %d", ErrUnknownNode, newParent)
	}
	// The new parent must not be inside the moved subtree.
	for cur := newParent; cur != None; cur = t.nodes[cur].parent {
		if cur == id {
			return fmt.Errorf("%w: %d under %d", ErrCycle, id, newParent)
		}
	}
	old := t.nodes[n.parent]
	old.children = removeID(old.children, id)
	n.parent = newParent
	np.children = append(np.children, id)
	t.refreshDepth(id, np.depth+1)
	return nil
}

func (t *Tree) refreshDepth(id NodeID, depth int) {
	n := t.nodes[id]
	n.depth = depth
	for _, c := range n.children {
		t.refreshDepth(c, depth+1)
	}
}

func removeID(ids []NodeID, id NodeID) []NodeID {
	out := ids[:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

// Has reports whether the node exists.
func (t *Tree) Has(id NodeID) bool {
	_, ok := t.nodes[id]
	return ok
}

// Len returns the number of nodes, including the gateway.
func (t *Tree) Len() int { return len(t.nodes) }

// NumNodes returns the number of nodes, including the gateway. It is an
// alias of Len named for the dense-index API.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Index returns the node's stable dense index in [0, IndexCap()), or -1 if
// the node does not exist. The gateway is always 0. The index is stable
// across Reparent and is only recycled after RemoveLeaf.
func (t *Tree) Index(id NodeID) int {
	i, ok := t.index[id]
	if !ok {
		return -1
	}
	return int(i)
}

// IndexCap returns the exclusive upper bound of live dense indices: flat
// per-node slices sized IndexCap can be addressed by Index for every
// current node. IndexCap >= NumNodes, with equality when no removed slot
// is awaiting reuse.
func (t *Tree) IndexCap() int { return len(t.order) }

// NodeAt returns the node occupying dense index i, or None if i is out of
// range or the slot is freed.
func (t *Tree) NodeAt(i int) NodeID {
	if i < 0 || i >= len(t.order) {
		return None
	}
	return t.order[i]
}

// Parent returns a node's parent (None for the gateway).
func (t *Tree) Parent(id NodeID) (NodeID, error) {
	n, ok := t.nodes[id]
	if !ok {
		return None, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return n.parent, nil
}

// Children returns a sorted copy of a node's children.
func (t *Tree) Children(id NodeID) []NodeID {
	n, ok := t.nodes[id]
	if !ok {
		return nil
	}
	out := make([]NodeID, len(n.children))
	copy(out, n.children)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsLeaf reports whether the node has no children.
func (t *Tree) IsLeaf(id NodeID) bool {
	n, ok := t.nodes[id]
	return ok && len(n.children) == 0
}

// Depth returns a node's hop count to the gateway (gateway: 0).
func (t *Tree) Depth(id NodeID) (int, error) {
	n, ok := t.nodes[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return n.depth, nil
}

// LinkLayer returns the layer of the links between node id and its children
// — l(V_i) in the paper — which equals depth(id)+1. The gateway's link layer
// is 1.
func (t *Tree) LinkLayer(id NodeID) (int, error) {
	d, err := t.Depth(id)
	if err != nil {
		return 0, err
	}
	return d + 1, nil
}

// LayerOf returns the layer of the (directed) links between node id and its
// parent, i.e. the node's own depth.
func (t *Tree) LayerOf(id NodeID) (int, error) { return t.Depth(id) }

// MaxLayer returns the largest link layer in the whole tree (the network's
// hop depth).
func (t *Tree) MaxLayer() int {
	maxDepth := 0
	for _, n := range t.nodes {
		if n.depth > maxDepth {
			maxDepth = n.depth
		}
	}
	return maxDepth
}

// SubtreeMaxLayer returns l(G_Vi): the largest link layer within the subtree
// rooted at id. For a leaf this is its own depth (the layer of its uplink).
func (t *Tree) SubtreeMaxLayer(id NodeID) (int, error) {
	n, ok := t.nodes[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	deepest := n.depth
	for _, c := range n.children {
		d, err := t.SubtreeMaxLayer(c)
		if err != nil {
			return 0, err
		}
		if d > deepest {
			deepest = d
		}
	}
	return deepest, nil
}

// Subtree returns the node IDs of the subtree rooted at id (including id),
// sorted.
func (t *Tree) Subtree(id NodeID) ([]NodeID, error) {
	if _, ok := t.nodes[id]; !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	var out []NodeID
	var walk func(NodeID)
	walk = func(cur NodeID) {
		out = append(out, cur)
		for _, c := range t.nodes[cur].children {
			walk(c)
		}
	}
	walk(id)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// SubtreeSize returns the number of nodes in the subtree rooted at id.
func (t *Tree) SubtreeSize(id NodeID) (int, error) {
	sub, err := t.Subtree(id)
	if err != nil {
		return 0, err
	}
	return len(sub), nil
}

// Nodes returns all node IDs, sorted. The slice is the caller's own copy.
func (t *Tree) Nodes() []NodeID {
	return append([]NodeID(nil), t.ids...)
}

// NonLeaves returns all nodes with at least one child, sorted. These are the
// nodes that own a HARP partition.
func (t *Tree) NonLeaves() []NodeID {
	var out []NodeID
	for id, n := range t.nodes {
		if len(n.children) > 0 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NodesAtDepth returns all nodes with the given hop count, sorted.
func (t *Tree) NodesAtDepth(depth int) []NodeID {
	var out []NodeID
	for id, n := range t.nodes {
		if n.depth == depth {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PathToGateway returns the node sequence from id up to (and including) the
// gateway.
func (t *Tree) PathToGateway(id NodeID) ([]NodeID, error) {
	if _, ok := t.nodes[id]; !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	var path []NodeID
	for cur := id; cur != None; cur = t.nodes[cur].parent {
		path = append(path, cur)
	}
	return path, nil
}

// Ancestors returns the strict ancestors of id, nearest first.
func (t *Tree) Ancestors(id NodeID) ([]NodeID, error) {
	path, err := t.PathToGateway(id)
	if err != nil {
		return nil, err
	}
	return path[1:], nil
}

// Validate checks structural invariants: exactly one root (the gateway),
// parent/child symmetry and correct depths. Intended for tests and for
// guarding deserialized input.
func (t *Tree) Validate() error {
	g, ok := t.nodes[GatewayID]
	if !ok {
		return errors.New("topology: missing gateway")
	}
	if g.parent != None || g.depth != 0 {
		return errors.New("topology: gateway must be the root at depth 0")
	}
	for id, n := range t.nodes {
		if id == GatewayID {
			continue
		}
		p, ok := t.nodes[n.parent]
		if !ok {
			return fmt.Errorf("topology: node %d has unknown parent %d", id, n.parent)
		}
		if !containsID(p.children, id) {
			return fmt.Errorf("topology: node %d missing from parent %d children", id, n.parent)
		}
		if n.depth != p.depth+1 {
			return fmt.Errorf("topology: node %d depth %d, parent depth %d", id, n.depth, p.depth)
		}
	}
	// Dense-index bookkeeping: every node owns exactly one live slot and
	// every slot is either owned or on the free list.
	if len(t.index) != len(t.nodes) {
		return fmt.Errorf("topology: %d indexed of %d nodes", len(t.index), len(t.nodes))
	}
	if len(t.order) != len(t.nodes)+len(t.free) {
		return fmt.Errorf("topology: index cap %d != %d nodes + %d free", len(t.order), len(t.nodes), len(t.free))
	}
	for id, i := range t.index {
		if i < 0 || int(i) >= len(t.order) || t.order[i] != id {
			return fmt.Errorf("topology: node %d index %d out of sync", id, i)
		}
	}
	for _, i := range t.free {
		if i < 0 || int(i) >= len(t.order) || t.order[i] != None {
			return fmt.Errorf("topology: free slot %d not vacant", i)
		}
	}
	if gi, ok := t.index[GatewayID]; !ok || gi != 0 {
		return errors.New("topology: gateway must hold dense index 0")
	}
	if len(t.ids) != len(t.nodes) {
		return fmt.Errorf("topology: %d sorted IDs of %d nodes", len(t.ids), len(t.nodes))
	}
	for i, id := range t.ids {
		if _, ok := t.nodes[id]; !ok || (i > 0 && t.ids[i-1] >= id) {
			return fmt.Errorf("topology: sorted ID list out of sync at %d", id)
		}
	}
	// Reachability: every node must be reachable from the gateway.
	sub, err := t.Subtree(GatewayID)
	if err != nil {
		return err
	}
	if len(sub) != len(t.nodes) {
		return fmt.Errorf("topology: %d of %d nodes unreachable from gateway", len(t.nodes)-len(sub), len(t.nodes))
	}
	return nil
}

func containsID(ids []NodeID, id NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the tree, preserving dense indices.
func (t *Tree) Clone() *Tree {
	c := &Tree{
		nodes: make(map[NodeID]*node, len(t.nodes)),
		order: make([]NodeID, len(t.order)),
		index: make(map[NodeID]int32, len(t.index)),
		free:  make([]int32, len(t.free)),
		ids:   append([]NodeID(nil), t.ids...),
	}
	for id, n := range t.nodes {
		children := make([]NodeID, len(n.children))
		copy(children, n.children)
		c.nodes[id] = &node{id: n.id, parent: n.parent, children: children, depth: n.depth}
	}
	copy(c.order, t.order)
	copy(c.free, t.free)
	for id, i := range t.index {
		c.index[id] = i
	}
	return c
}

// Dense is an immutable snapshot of the tree laid out in index space.
// Children of the node at dense index i occupy the contiguous range
// Children[ChildOff[i]:ChildOff[i+1]] (as dense indices, sorted by NodeID),
// so traversals touch flat arrays instead of chasing per-node map entries.
// Freed slots carry Node == None, Parent == -1 and an empty child range.
// The snapshot does not track later tree mutations.
type Dense struct {
	Node     []NodeID // dense index -> NodeID (None for freed slots)
	Parent   []int32  // dense index -> parent's dense index (-1 for gateway/freed)
	Depth    []int32  // dense index -> hop count (-1 for freed slots)
	ChildOff []int32  // length IndexCap+1; child range offsets into Children
	Children []int32  // concatenated child index ranges
}

// Dense captures the current tree as a CSR-style snapshot.
func (t *Tree) Dense() *Dense {
	capN := len(t.order)
	d := &Dense{
		Node:     make([]NodeID, capN),
		Parent:   make([]int32, capN),
		Depth:    make([]int32, capN),
		ChildOff: make([]int32, capN+1),
		Children: make([]int32, 0, len(t.nodes)-1),
	}
	copy(d.Node, t.order)
	for i := 0; i < capN; i++ {
		d.ChildOff[i] = int32(len(d.Children))
		id := t.order[i]
		if id == None {
			d.Parent[i] = -1
			d.Depth[i] = -1
			continue
		}
		n := t.nodes[id]
		d.Depth[i] = int32(n.depth)
		if n.parent == None {
			d.Parent[i] = -1
		} else {
			d.Parent[i] = t.index[n.parent]
		}
		for _, c := range t.Children(id) {
			d.Children = append(d.Children, t.index[c])
		}
	}
	d.ChildOff[capN] = int32(len(d.Children))
	return d
}

// String renders the tree as an indented outline, one node per line.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(id NodeID, indent int)
	walk = func(id NodeID, indent int) {
		fmt.Fprintf(&b, "%s%d\n", strings.Repeat("  ", indent), id) //harplint:allow errcheck strings.Builder writes cannot fail
		for _, c := range t.Children(id) {
			walk(c, indent+1)
		}
	}
	walk(GatewayID, 0)
	return b.String()
}
