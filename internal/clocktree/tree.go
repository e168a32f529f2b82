// Package clocktree models buffered clock trees: topology, placement,
// wire parasitics, buffering-element assignment, per-power-mode Elmore
// timing, clock skew, signal polarity, and supply-current extraction.
//
// A tree node is one buffering element (buffer, inverter, ADB or ADI)
// together with the wire that connects it to its parent's output. Leaf
// nodes ("sinks" in the paper) drive groups of flip-flops, modeled as a
// lumped sink capacitance. The paper's polarity assignment re-maps the
// *cells* at leaf nodes; the topology never changes.
package clocktree

import (
	"fmt"

	"wavemin/internal/cell"
)

// NodeID indexes a node within its tree. IDs are dense, assigned in
// creation order, with the root always 0.
type NodeID int

// NoNode is the parent of the root.
const NoNode NodeID = -1

// DefaultDomain is the voltage domain nodes belong to unless assigned.
const DefaultDomain = "core"

// Node is one buffering element of a clock tree.
type Node struct {
	ID       NodeID
	Parent   NodeID
	Children []NodeID

	X, Y float64 // placement, µm

	// Cell is the buffering element instantiated at this node.
	Cell *cell.Cell

	// WireRes/WireCap are the parasitics of the wire from the parent's
	// output to this node's input (kΩ, fF). Zero for the root.
	WireRes, WireCap float64

	// SinkCap is the lumped flip-flop load on a leaf's output, fF.
	SinkCap float64

	// Domain names the voltage island this node sits in.
	Domain string

	// AdjustSteps holds an adjustable cell's capacitor-bank setting per
	// power-mode name (number of engaged steps). Ignored for plain cells.
	AdjustSteps map[string]int

	// DelayScale and CurrentScale model per-instance process variation
	// (buffer width, threshold voltage): the node's cell delay and supply
	// currents are multiplied by them. Zero means 1.0 (nominal).
	DelayScale   float64
	CurrentScale float64
}

// delayScale returns the node's effective delay multiplier.
func (n *Node) delayScale() float64 {
	if n.DelayScale == 0 {
		return 1
	}
	return n.DelayScale
}

// currentScale returns the node's effective current multiplier.
func (n *Node) currentScale() float64 {
	if n.CurrentScale == 0 {
		return 1
	}
	return n.CurrentScale
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// AdjustDelay returns the extra delay of the node's capacitor bank in the
// given mode, in ps. Zero for non-adjustable cells and unset modes.
func (n *Node) AdjustDelay(modeName string) float64 {
	if n.Cell == nil || !n.Cell.Adjustable() || n.AdjustSteps == nil {
		return 0
	}
	return float64(n.AdjustSteps[modeName]) * n.Cell.StepPs
}

// Tree is a buffered clock tree. Mutations (AddChild, SetCell, …) are not
// concurrency-safe; timing is computed on demand via ComputeTiming.
type Tree struct {
	nodes []*Node
}

// New creates a tree containing only a root with the given cell and
// placement.
func New(rootCell *cell.Cell, x, y float64) *Tree {
	t := &Tree{}
	t.nodes = append(t.nodes, &Node{
		ID: 0, Parent: NoNode, Cell: rootCell, X: x, Y: y, Domain: DefaultDomain,
	})
	return t
}

// Root returns the root node ID (always 0).
func (t *Tree) Root() NodeID { return 0 }

// Len returns the number of nodes (the paper's n).
func (t *Tree) Len() int { return len(t.nodes) }

// Node returns the node with the given ID. The returned pointer aliases
// tree state; mutate via the Set* helpers to keep invariants obvious.
func (t *Tree) Node(id NodeID) *Node { return t.nodes[id] }

// AddChild creates a new node under parent with the given cell, placement
// and connecting-wire parasitics, and returns its ID.
func (t *Tree) AddChild(parent NodeID, c *cell.Cell, x, y, wireRes, wireCap float64) NodeID {
	if wireRes < 0 || wireCap < 0 {
		panic(fmt.Sprintf("clocktree: negative wire parasitics R=%g C=%g", wireRes, wireCap))
	}
	id := NodeID(len(t.nodes))
	t.nodes = append(t.nodes, &Node{
		ID: id, Parent: parent, Cell: c, X: x, Y: y,
		WireRes: wireRes, WireCap: wireCap, Domain: t.nodes[parent].Domain,
	})
	t.nodes[parent].Children = append(t.nodes[parent].Children, id)
	return id
}

// SetCell swaps the buffering element at a node — the polarity-assignment
// primitive. The topology, placement and wires are untouched.
func (t *Tree) SetCell(id NodeID, c *cell.Cell) { t.nodes[id].Cell = c }

// SetSinkCap marks a node as driving a flip-flop group of the given
// capacitance.
func (t *Tree) SetSinkCap(id NodeID, capFF float64) {
	if capFF < 0 {
		panic("clocktree: negative sink cap")
	}
	t.nodes[id].SinkCap = capFF
}

// SetDomainSubtree assigns the whole subtree under id to a voltage island.
func (t *Tree) SetDomainSubtree(id NodeID, domain string) {
	t.nodes[id].Domain = domain
	for _, ch := range t.nodes[id].Children {
		t.SetDomainSubtree(ch, domain)
	}
}

// SetAdjustSteps sets an adjustable node's capacitor-bank engagement for a
// mode. Panics if the node's cell is not adjustable or steps are out of
// range.
func (t *Tree) SetAdjustSteps(id NodeID, modeName string, steps int) {
	n := t.nodes[id]
	if n.Cell == nil || !n.Cell.Adjustable() {
		panic(fmt.Sprintf("clocktree: node %d (%v) is not adjustable", id, n.Cell))
	}
	if steps < 0 || steps > n.Cell.MaxSteps {
		panic(fmt.Sprintf("clocktree: steps %d out of range [0,%d]", steps, n.Cell.MaxSteps))
	}
	if n.AdjustSteps == nil {
		n.AdjustSteps = make(map[string]int)
	}
	n.AdjustSteps[modeName] = steps
}

// Leaves returns the IDs of all leaf nodes (the paper's L), in ID order.
func (t *Tree) Leaves() []NodeID {
	var out []NodeID
	for _, n := range t.nodes {
		if n.IsLeaf() {
			out = append(out, n.ID)
		}
	}
	return out
}

// NonLeaves returns the IDs of all internal nodes, in ID order.
func (t *Tree) NonLeaves() []NodeID {
	var out []NodeID
	for _, n := range t.nodes {
		if !n.IsLeaf() {
			out = append(out, n.ID)
		}
	}
	return out
}

// Walk visits every node in preorder (parents before children).
func (t *Tree) Walk(visit func(*Node)) {
	var rec func(NodeID)
	rec = func(id NodeID) {
		visit(t.nodes[id])
		for _, ch := range t.nodes[id].Children {
			rec(ch)
		}
	}
	rec(t.Root())
}

// PathToRoot returns the node IDs from id up to and including the root.
func (t *Tree) PathToRoot(id NodeID) []NodeID {
	var out []NodeID
	for cur := id; cur != NoNode; cur = t.nodes[cur].Parent {
		out = append(out, cur)
	}
	return out
}

// InvertingDepth returns the number of inverting cells on the path from
// the root down to and including id. Leaf polarity is its parity.
func (t *Tree) InvertingDepth(id NodeID) int {
	n := 0
	for cur := id; cur != NoNode; cur = t.nodes[cur].Parent {
		if c := t.nodes[cur].Cell; c != nil && c.Inverting() {
			n++
		}
	}
	return n
}

// PolarityOf reports a node's polarity: true for positive (output switches
// with the clock source), false for negative. Per the paper's definition
// (footnote 1), this is the parity of inverting cells on the root path
// including the node itself.
func (t *Tree) PolarityOf(id NodeID) bool { return t.InvertingDepth(id)%2 == 0 }

// EdgeAtInput returns the clock edge seen at the node's *input* when the
// source launches edge e: the source edge flipped once per inverting cell
// strictly above the node.
func (t *Tree) EdgeAtInput(id NodeID, e cell.Edge) cell.Edge {
	flips := t.InvertingDepth(id)
	if c := t.nodes[id].Cell; c != nil && c.Inverting() {
		flips--
	}
	if flips%2 == 1 {
		return e.Opposite()
	}
	return e
}

// Validate checks structural invariants: dense IDs, parent/child
// consistency, cells everywhere, acyclicity by construction.
func (t *Tree) Validate() error {
	for i, n := range t.nodes {
		if n.ID != NodeID(i) {
			return fmt.Errorf("clocktree: node %d has ID %d", i, n.ID)
		}
		if n.Cell == nil {
			return fmt.Errorf("clocktree: node %d has no cell", i)
		}
		if i == 0 {
			if n.Parent != NoNode {
				return fmt.Errorf("clocktree: root has parent %d", n.Parent)
			}
		} else {
			if n.Parent < 0 || int(n.Parent) >= len(t.nodes) {
				return fmt.Errorf("clocktree: node %d has bad parent %d", i, n.Parent)
			}
			found := false
			for _, ch := range t.nodes[n.Parent].Children {
				if ch == n.ID {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("clocktree: node %d missing from parent %d's children", i, n.Parent)
			}
		}
		for _, ch := range n.Children {
			if ch < 0 || int(ch) >= len(t.nodes) || ch == n.ID {
				return fmt.Errorf("clocktree: node %d has bad child %d", i, ch)
			}
			if t.nodes[ch].Parent != n.ID {
				return fmt.Errorf("clocktree: child %d does not point back to %d", ch, i)
			}
		}
	}
	// Reachability/acyclicity: a preorder walk from the root must visit
	// every node exactly once.
	seen := make([]bool, len(t.nodes))
	count := 0
	t.Walk(func(n *Node) {
		if !seen[n.ID] {
			seen[n.ID] = true
			count++
		}
	})
	if count != len(t.nodes) {
		return fmt.Errorf("clocktree: %d of %d nodes reachable from root", count, len(t.nodes))
	}
	return nil
}

// SplitWire inserts a new node with the given cell in the middle of the
// wire feeding child: the wire's parasitics are halved on each side and the
// new node is placed at the geometric midpoint. Used for repeater
// insertion on long routes. Returns the new node's ID.
func (t *Tree) SplitWire(child NodeID, c *cell.Cell) NodeID {
	ch := t.nodes[child]
	if ch.Parent == NoNode {
		panic("clocktree: cannot split the root's (nonexistent) wire")
	}
	p := t.nodes[ch.Parent]
	mid := &Node{
		ID:     NodeID(len(t.nodes)),
		Parent: p.ID,
		X:      (p.X + ch.X) / 2, Y: (p.Y + ch.Y) / 2,
		Cell:    c,
		WireRes: ch.WireRes / 2, WireCap: ch.WireCap / 2,
		Domain: ch.Domain,
	}
	t.nodes = append(t.nodes, mid)
	// Re-point the parent's child slot at the repeater.
	for i, cid := range p.Children {
		if cid == child {
			p.Children[i] = mid.ID
			break
		}
	}
	mid.Children = []NodeID{child}
	ch.Parent = mid.ID
	ch.WireRes /= 2
	ch.WireCap /= 2
	return mid.ID
}

// ReplaceWith makes t adopt o's node storage, keeping t's identity: every
// existing *Tree reference observes the new state. Used to commit an
// optimization performed on a Clone atomically — either the whole
// optimized tree lands, or (on error or panic) t is untouched.
func (t *Tree) ReplaceWith(o *Tree) { t.nodes = o.nodes }

// Clone deep-copies the tree (nodes, children slices, ADB settings). Cell
// pointers are shared: cells are immutable library entries.
func (t *Tree) Clone() *Tree {
	nt := &Tree{nodes: make([]*Node, len(t.nodes))}
	for i, n := range t.nodes {
		cp := *n
		cp.Children = append([]NodeID(nil), n.Children...)
		if n.AdjustSteps != nil {
			cp.AdjustSteps = make(map[string]int, len(n.AdjustSteps))
			for k, v := range n.AdjustSteps {
				cp.AdjustSteps[k] = v
			}
		}
		nt.nodes[i] = &cp
	}
	return nt
}
