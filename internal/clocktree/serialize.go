package clocktree

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"

	"wavemin/internal/cell"
)

// jsonNode is the serialized form of one tree node. Cells are stored by
// library name and re-resolved on load, so a serialized tree is portable
// across processes sharing a cell library.
type jsonNode struct {
	ID          NodeID         `json:"id"`
	Parent      NodeID         `json:"parent"`
	Cell        string         `json:"cell"`
	X           float64        `json:"x"`
	Y           float64        `json:"y"`
	WireRes     float64        `json:"wire_res,omitempty"`
	WireCap     float64        `json:"wire_cap,omitempty"`
	SinkCap     float64        `json:"sink_cap,omitempty"`
	Domain      string         `json:"domain,omitempty"`
	AdjustSteps map[string]int `json:"adjust_steps,omitempty"`
}

type jsonTree struct {
	Format string     `json:"format"`
	Nodes  []jsonNode `json:"nodes"`
}

// jsonFormat tags the serialization for forward compatibility.
const jsonFormat = "wavemin-clocktree-v1"

// WriteJSON serializes the tree in its canonical form (appendJSON).
func (t *Tree) WriteJSON(w io.Writer) error {
	nodes := make([]jsonNode, len(t.nodes))
	for i, n := range t.nodes {
		nodes[i] = jsonNode{
			ID: n.ID, Parent: n.Parent, Cell: n.Cell.Name,
			X: n.X, Y: n.Y, WireRes: n.WireRes, WireCap: n.WireCap,
			SinkCap: n.SinkCap, Domain: n.Domain, AdjustSteps: n.AdjustSteps,
		}
	}
	out, err := appendJSON(nil, nodes)
	if err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// ReadJSON deserializes a tree, resolving cells by name from lib.
func ReadJSON(r io.Reader, lib *cell.Library) (*Tree, error) {
	var in jsonTree
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("clocktree: decode: %w", err)
	}
	nodes, err := in.check(lib)
	if err != nil {
		return nil, err
	}
	t := &Tree{nodes: make([]*Node, len(nodes))}
	for i := range nodes {
		jn := &nodes[i]
		c, _ := lib.ByName(jn.Cell) // check resolved every name
		t.nodes[i] = &Node{
			ID: jn.ID, Parent: jn.Parent, Cell: c,
			X: jn.X, Y: jn.Y, WireRes: jn.WireRes, WireCap: jn.WireCap,
			SinkCap: jn.SinkCap, Domain: jn.Domain, AdjustSteps: jn.AdjustSteps,
		}
	}
	// Children lists in ID order, for determinism.
	for _, n := range t.nodes[1:] {
		p := t.nodes[n.Parent]
		p.Children = append(p.Children, n.ID)
	}
	return t, nil
}

// CanonicalJSON reads a serialized tree as ReadJSON does — the same
// checks in the same order, the same errors — but builds no tree. It
// returns the bytes WriteJSON would write for the tree ReadJSON would
// return, and the largest x and y over the tree's nodes.
func CanonicalJSON(raw []byte, lib *cell.Library) (out []byte, maxX, maxY float64, err error) {
	// When raw is exactly one JSON value, Unmarshal decodes it as
	// ReadJSON's Decoder would, without copying it into a read buffer.
	// Anything else goes through that Decoder, whose answer then stands:
	// its error text, or the first value with the rest ignored.
	var in jsonTree
	if json.Unmarshal(raw, &in) != nil {
		in = jsonTree{}
		if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&in); err != nil {
			return nil, 0, 0, fmt.Errorf("clocktree: decode: %w", err)
		}
	}
	nodes, err := in.check(lib)
	if err != nil {
		return nil, 0, 0, err
	}
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	for i := range nodes {
		maxX, maxY = max(maxX, nodes[i].X), max(maxY, nodes[i].Y)
	}
	out, err = appendJSON(nil, nodes)
	if err != nil {
		return nil, 0, 0, err
	}
	return out, maxX, maxY, nil
}

// check makes every check a decoded tree must pass, and returns its nodes
// sorted by ID. Untrusted input: every value that would trip an invariant
// panic (or corrupt timing) deep inside the engine later is refused here,
// with the first fault reported — the node fields in input order, then
// the structure in ID order, the checks Tree.Validate makes of a built
// tree. On success node 0 is the root, every other parent is another
// node, every node is reachable from the root, every cell name resolves
// in lib and an empty domain reads DefaultDomain.
func (in *jsonTree) check(lib *cell.Library) ([]jsonNode, error) {
	if in.Format != jsonFormat {
		return nil, fmt.Errorf("clocktree: unknown format %q", in.Format)
	}
	nodes := in.Nodes
	if len(nodes) == 0 {
		return nil, fmt.Errorf("clocktree: empty tree")
	}
	seen := make([]bool, len(nodes))
	for i := range nodes {
		jn := &nodes[i]
		if int(jn.ID) < 0 || int(jn.ID) >= len(nodes) {
			return nil, fmt.Errorf("clocktree: node ID %d out of range", jn.ID)
		}
		if seen[jn.ID] {
			return nil, fmt.Errorf("clocktree: duplicate node ID %d", jn.ID)
		}
		seen[jn.ID] = true
		c, ok := lib.ByName(jn.Cell)
		if !ok {
			return nil, fmt.Errorf("clocktree: node %d references unknown cell %q", jn.ID, jn.Cell)
		}
		for _, v := range [...]struct {
			name string
			val  float64
		}{
			{"x", jn.X}, {"y", jn.Y},
			{"wire_res", jn.WireRes}, {"wire_cap", jn.WireCap},
			{"sink_cap", jn.SinkCap},
		} {
			if math.IsNaN(v.val) || math.IsInf(v.val, 0) {
				return nil, fmt.Errorf("clocktree: node %d has non-finite %s %g", jn.ID, v.name, v.val)
			}
		}
		if jn.WireRes < 0 || jn.WireCap < 0 {
			return nil, fmt.Errorf("clocktree: node %d has negative wire parasitics R=%g C=%g", jn.ID, jn.WireRes, jn.WireCap)
		}
		if jn.SinkCap < 0 {
			return nil, fmt.Errorf("clocktree: node %d has negative sink cap %g", jn.ID, jn.SinkCap)
		}
		if len(jn.AdjustSteps) > 0 && !c.Adjustable() {
			return nil, fmt.Errorf("clocktree: node %d has adjust steps but cell %s is not adjustable", jn.ID, c.Name)
		}
		// Of several bad settings the first mode name in byte order is
		// reported, so the error text does not depend on map order.
		bad, found := "", false
		for mode, steps := range jn.AdjustSteps {
			if (steps < 0 || steps > c.MaxSteps) && (!found || mode < bad) {
				bad, found = mode, true
			}
		}
		if found {
			return nil, fmt.Errorf("clocktree: node %d mode %q: steps %d out of range [0,%d]", jn.ID, bad, jn.AdjustSteps[bad], c.MaxSteps)
		}
		if jn.Domain == "" {
			jn.Domain = DefaultDomain
		}
	}
	// The IDs are a permutation of 0..n-1: swap every node into its slot.
	for i := range nodes {
		for nodes[i].ID != NodeID(i) {
			j := nodes[i].ID
			nodes[i], nodes[j] = nodes[j], nodes[i]
		}
	}
	for i := range nodes {
		if p := nodes[i].Parent; p != NoNode && (p < 0 || int(p) >= len(nodes)) {
			return nil, fmt.Errorf("clocktree: node %d has bad parent %d", i, p)
		}
	}
	if nodes[0].Parent != NoNode {
		return nil, fmt.Errorf("clocktree: node 0 must be the root")
	}
	for i := 1; i < len(nodes); i++ {
		switch p := nodes[i].Parent; p {
		case NoNode:
			return nil, fmt.Errorf("clocktree: node %d has bad parent %d", i, p)
		case NodeID(i):
			return nil, fmt.Errorf("clocktree: node %d has bad child %d", i, i)
		}
	}
	if n := reachable(nodes); n != len(nodes) {
		return nil, fmt.Errorf("clocktree: %d of %d nodes reachable from root", n, len(nodes))
	}
	return nodes, nil
}

// reachable counts the nodes whose parent chain ends at the root: the
// nodes a preorder walk from the root visits once children are linked.
// Node i sits in slot i, node 0 is the root and every other parent is a
// different node; a chain that closes on itself is a cycle the walk never
// enters.
func reachable(nodes []jsonNode) int {
	const (
		unknown = iota
		onPath
		rooted
		cut
	)
	state := make([]uint8, len(nodes))
	state[0] = rooted
	count := 1
	for i := range nodes {
		j := i
		for state[j] == unknown {
			state[j] = onPath
			j = int(nodes[j].Parent)
		}
		end := state[j]
		if end == onPath {
			end = cut
		}
		for k := i; state[k] == onPath; k = int(nodes[k].Parent) {
			state[k] = end
			if end == rooted {
				count++
			}
		}
	}
	return count
}

// appendJSON appends the canonical serialization of a tree whose nodes
// are given in ID order: byte for byte what encoding/json's Encoder with
// SetIndent("", "  ") writes for jsonTree{jsonFormat, nodes}, trailing
// newline included. It is the one writer behind both WriteJSON and the
// request path's CanonicalJSON, so a design's cache key and a request's
// cannot drift apart. A non-finite float is refused with the error
// encoding/json gives.
func appendJSON(dst []byte, nodes []jsonNode) ([]byte, error) {
	// A node takes 248–263 bytes on average in the seven paper circuits:
	// growing once up front saves the copies of growing by doubling.
	dst = slices.Grow(dst, 272*len(nodes))
	dst = append(dst, "{\n  \"format\": \""+jsonFormat+"\",\n  \"nodes\": ["...)
	var err error
	for i := range nodes {
		n := &nodes[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, "\n    {\n      \"id\": "...)
		dst = strconv.AppendInt(dst, int64(n.ID), 10)
		dst = append(dst, ",\n      \"parent\": "...)
		dst = strconv.AppendInt(dst, int64(n.Parent), 10)
		dst = append(dst, ",\n      \"cell\": "...)
		dst = appendString(dst, n.Cell)
		for _, f := range [...]struct {
			key       string
			val       float64
			omitEmpty bool
		}{
			{",\n      \"x\": ", n.X, false},
			{",\n      \"y\": ", n.Y, false},
			{",\n      \"wire_res\": ", n.WireRes, true},
			{",\n      \"wire_cap\": ", n.WireCap, true},
			{",\n      \"sink_cap\": ", n.SinkCap, true},
		} {
			if f.omitEmpty && f.val == 0 {
				continue
			}
			dst = append(dst, f.key...)
			if dst, err = appendFloat(dst, f.val); err != nil {
				return nil, err
			}
		}
		if n.Domain != "" {
			dst = append(dst, ",\n      \"domain\": "...)
			dst = appendString(dst, n.Domain)
		}
		if len(n.AdjustSteps) > 0 {
			modes := make([]string, 0, len(n.AdjustSteps))
			for m := range n.AdjustSteps {
				modes = append(modes, m)
			}
			sort.Strings(modes)
			dst = append(dst, ",\n      \"adjust_steps\": {"...)
			for j, m := range modes {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, "\n        "...)
				dst = appendString(dst, m)
				dst = append(dst, ": "...)
				dst = strconv.AppendInt(dst, int64(n.AdjustSteps[m]), 10)
			}
			dst = append(dst, "\n      }"...)
		}
		dst = append(dst, "\n    }"...)
	}
	if len(nodes) > 0 {
		dst = append(dst, "\n  "...)
	}
	return append(dst, "]\n}\n"...), nil
}

// appendFloat renders a float as encoding/json does: the shortest 'f'
// form, switching to 'e' below 1e-6 or from 1e21 up, with a one-digit
// negative exponent written e-7 rather than e-07.
func appendFloat(dst []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendString quotes s as encoding/json does. Printable ASCII other than
// the quote, the backslash and the HTML-escaped <, > and & is copied as
// is; any other string goes through json.Marshal, which escapes it.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
