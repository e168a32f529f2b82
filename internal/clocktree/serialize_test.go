package clocktree

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"wavemin/internal/cell"
)

func TestJSONRoundTrip(t *testing.T) {
	tr, lib := buildBalanced(t)
	// Decorate with domains, ADB settings, and mixed cells.
	tr.SetDomainSubtree(tr.Leaves()[2], "islandA")
	tr.SetCell(tr.Leaves()[0], lib.MustByName("ADB_X8"))
	tr.SetAdjustSteps(tr.Leaves()[0], "M2", 5)
	tr.SetCell(tr.Leaves()[1], lib.MustByName("INV_X4"))

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf, lib)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("node count %d vs %d", got.Len(), tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		a, b := tr.Node(NodeID(i)), got.Node(NodeID(i))
		if a.Cell.Name != b.Cell.Name || a.Domain != b.Domain ||
			a.X != b.X || a.WireRes != b.WireRes || a.SinkCap != b.SinkCap {
			t.Fatalf("node %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	// Timing must agree exactly (including ADB settings).
	mode := Mode{Name: "M2"}
	tmA := tr.ComputeTiming(mode)
	tmB := got.ComputeTiming(mode)
	for i := range tmA.ATOut {
		if math.Abs(tmA.ATOut[i]-tmB.ATOut[i]) > 1e-12 {
			t.Fatalf("timing mismatch at node %d", i)
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	lib := cell.DefaultLibrary()
	cases := []string{
		``,
		`{"format":"bogus","nodes":[]}`,
		`{"format":"wavemin-clocktree-v1","nodes":[]}`,
		`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"NOPE","x":0,"y":0}]}`,
		`{"format":"wavemin-clocktree-v1","nodes":[{"id":5,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]}`,
		`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0},{"id":0,"parent":0,"cell":"BUF_X8","x":0,"y":0}]}`,
		`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0},{"id":1,"parent":7,"cell":"BUF_X8","x":0,"y":0}]}`,
		`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":1,"cell":"BUF_X8","x":0,"y":0},{"id":1,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]}`,
	}
	for i, src := range cases {
		if _, err := ReadJSON(strings.NewReader(src), lib); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestReadJSONRejectsInvalidValues: untrusted JSON carrying values that
// would corrupt timing or trip invariant panics deep in the engine must be
// rejected at load time with a descriptive error.
func TestReadJSONRejectsInvalidValues(t *testing.T) {
	lib := cell.DefaultLibrary()
	const hdr = `{"format":"wavemin-clocktree-v1","nodes":[`
	cases := []struct {
		name string
		src  string
	}{
		{"negative wire_res",
			hdr + `{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0},{"id":1,"parent":0,"cell":"BUF_X8","x":1,"y":1,"wire_res":-2}]}`},
		{"negative wire_cap",
			hdr + `{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0},{"id":1,"parent":0,"cell":"BUF_X8","x":1,"y":1,"wire_cap":-8}]}`},
		{"negative sink_cap",
			hdr + `{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0},{"id":1,"parent":0,"cell":"BUF_X8","x":1,"y":1,"sink_cap":-1}]}`},
		{"adjust steps on plain cell",
			hdr + `{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0,"adjust_steps":{"M1":3}}]}`},
		{"adjust steps out of range",
			hdr + `{"id":0,"parent":-1,"cell":"ADB_X8","x":0,"y":0,"adjust_steps":{"M1":100000}}]}`},
		{"negative adjust steps",
			hdr + `{"id":0,"parent":-1,"cell":"ADB_X8","x":0,"y":0,"adjust_steps":{"M1":-1}}]}`},
		{"two-node parent cycle",
			hdr + `{"id":0,"parent":1,"cell":"BUF_X8","x":0,"y":0},{"id":1,"parent":0,"cell":"BUF_X8","x":1,"y":1}]}`},
		{"non-finite coordinate",
			hdr + `{"id":0,"parent":-1,"cell":"BUF_X8","x":1e999,"y":0}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadJSON(strings.NewReader(tc.src), lib); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestJSONDefaultDomain(t *testing.T) {
	lib := cell.DefaultLibrary()
	src := `{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]}`
	tr, err := ReadJSON(strings.NewReader(src), lib)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Node(0).Domain != DefaultDomain {
		t.Fatalf("domain = %q", tr.Node(0).Domain)
	}
}

// OracleJSON is the encoding/json rendering of a tree that WriteJSON
// reproduces by hand: the serializer WriteJSON replaced, kept as the
// reference its bytes are tested against here and in the package's
// external tests.
func OracleJSON(t *Tree) ([]byte, error) {
	out := jsonTree{Format: jsonFormat, Nodes: make([]jsonNode, 0, len(t.nodes))}
	for _, n := range t.nodes {
		out.Nodes = append(out.Nodes, jsonNode{
			ID: n.ID, Parent: n.Parent, Cell: n.Cell.Name,
			X: n.X, Y: n.Y, WireRes: n.WireRes, WireCap: n.WireCap,
			SinkCap: n.SinkCap, Domain: n.Domain, AdjustSteps: n.AdjustSteps,
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(out)
	return buf.Bytes(), err
}

// legacyReadJSON is ReadJSON as it was before its checks moved onto the
// decoded wire nodes: build the tree as the nodes arrive, then run
// Tree.Validate. It is the reference for the checks' order and text. One
// change: of several out-of-range adjust steps on a node it reports the
// first mode in byte order, where map order used to pick one.
func legacyReadJSON(r io.Reader, lib *cell.Library) (*Tree, error) {
	var in jsonTree
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("clocktree: decode: %w", err)
	}
	if in.Format != jsonFormat {
		return nil, fmt.Errorf("clocktree: unknown format %q", in.Format)
	}
	if len(in.Nodes) == 0 {
		return nil, fmt.Errorf("clocktree: empty tree")
	}
	t := &Tree{nodes: make([]*Node, len(in.Nodes))}
	for _, jn := range in.Nodes {
		if int(jn.ID) < 0 || int(jn.ID) >= len(in.Nodes) {
			return nil, fmt.Errorf("clocktree: node ID %d out of range", jn.ID)
		}
		if t.nodes[jn.ID] != nil {
			return nil, fmt.Errorf("clocktree: duplicate node ID %d", jn.ID)
		}
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
		modes := make([]string, 0, len(jn.AdjustSteps))
		for mode := range jn.AdjustSteps {
			modes = append(modes, mode)
		}
		sort.Strings(modes)
		for _, mode := range modes {
			if steps := jn.AdjustSteps[mode]; steps < 0 || steps > c.MaxSteps {
				return nil, fmt.Errorf("clocktree: node %d mode %q: steps %d out of range [0,%d]", jn.ID, mode, steps, c.MaxSteps)
			}
		}
		domain := jn.Domain
		if domain == "" {
			domain = DefaultDomain
		}
		t.nodes[jn.ID] = &Node{
			ID: jn.ID, Parent: jn.Parent, Cell: c,
			X: jn.X, Y: jn.Y, WireRes: jn.WireRes, WireCap: jn.WireCap,
			SinkCap: jn.SinkCap, Domain: domain, AdjustSteps: jn.AdjustSteps,
		}
	}
	for _, n := range t.nodes {
		if n.Parent == NoNode {
			continue
		}
		if int(n.Parent) < 0 || int(n.Parent) >= len(t.nodes) {
			return nil, fmt.Errorf("clocktree: node %d has bad parent %d", n.ID, n.Parent)
		}
		p := t.nodes[n.Parent]
		p.Children = append(p.Children, n.ID)
	}
	if t.nodes[0].Parent != NoNode {
		return nil, fmt.Errorf("clocktree: node 0 must be the root")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// checkAgainstReferences reads src with ReadJSON and with CanonicalJSON
// and holds both to the references: legacyReadJSON's acceptance, error
// text and tree, and encoding/json's bytes for that tree — which
// CanonicalJSON must produce without building it — and its extent.
func checkAgainstReferences(t *testing.T, src string, lib *cell.Library) {
	t.Helper()
	want, wantErr := legacyReadJSON(strings.NewReader(src), lib)
	got, err := ReadJSON(strings.NewReader(src), lib)
	canon, maxX, maxY, cerr := CanonicalJSON([]byte(src), lib)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || fmt.Sprint(cerr) != fmt.Sprint(wantErr) {
		t.Fatalf("errors differ:\nReadJSON      %v\nCanonicalJSON %v\nreference     %v", err, cerr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("ReadJSON built a different tree than the reference")
	}
	oracle, err := OracleJSON(want)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := got.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), oracle) {
		t.Fatalf("WriteJSON differs from encoding/json:\n%s\nwant\n%s", out.Bytes(), oracle)
	}
	if !bytes.Equal(canon, oracle) {
		t.Fatalf("CanonicalJSON differs from encoding/json:\n%s\nwant\n%s", canon, oracle)
	}
	wantX, wantY := math.Inf(-1), math.Inf(-1)
	want.Walk(func(n *Node) { wantX, wantY = math.Max(wantX, n.X), math.Max(wantY, n.Y) })
	if maxX != wantX || maxY != wantY {
		t.Fatalf("CanonicalJSON extent (%g, %g), want (%g, %g)", maxX, maxY, wantX, wantY)
	}
}

// TestWriteJSONMatchesEncodingJSON holds the hand-written writer to
// encoding/json on in-memory trees no decode can produce — invalid UTF-8
// and control bytes in names, an empty domain, no nodes at all — and on
// floats across the whole range, where the rendering switches between
// 'f' and 'e' forms.
func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	lib := cell.DefaultLibrary()
	tr := New(lib.MustByName("BUF_X16"), 0, 0)
	adb := tr.AddChild(tr.Root(), lib.MustByName("ADB_X8"), 1, 1, 0.5, 2)
	leaf := tr.AddChild(adb, lib.MustByName("INV_X8"), 2, 2, 0, 0)
	tr.SetSinkCap(leaf, 8)
	for _, mode := range []string{"m<2", "M1>", "a&b", "\u2028", "\xff\xfe", "tab\there", "", "z\"q", "b\\s"} {
		tr.SetAdjustSteps(adb, mode, 1)
	}
	for i, dom := range []string{"", "\xc3\x28", "x\u2029y", "\x00\x1f\x7f", "<script>"} {
		tr.Node(leaf).Domain = dom
		tr.Node(adb).AdjustSteps["d"] = i
		compareWithOracle(t, tr)
	}
	tr.Node(adb).AdjustSteps = map[string]int{}
	compareWithOracle(t, tr)
	compareWithOracle(t, &Tree{})

	special := []float64{math.Copysign(0, -1), 1e-7, 9.999999e-7, 1e-6, 1e21, 9.999999e20, -1e21,
		5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, 0.1, 123456789.125, 1e20, 1.5e-10}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		special = append(special, v)
	}
	for _, v := range special {
		n := tr.Node(leaf)
		n.X, n.Y, n.WireRes, n.WireCap, n.SinkCap = v, -v, math.Abs(v), v/3, v*7
		compareWithOracle(t, tr)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tr.Node(leaf).WireCap = v
		compareWithOracle(t, tr)
	}
}

// compareWithOracle requires WriteJSON to write encoding/json's bytes, or
// to fail with its error.
func compareWithOracle(t *testing.T, tr *Tree) {
	t.Helper()
	want, wantErr := OracleJSON(tr)
	var got bytes.Buffer
	err := tr.WriteJSON(&got)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("WriteJSON error %v, encoding/json %v", err, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteJSON differs from encoding/json:\n%s\nwant\n%s", got.Bytes(), want)
	}
	if wantErr != nil && got.Len() != 0 {
		t.Fatalf("failed WriteJSON wrote %d bytes", got.Len())
	}
}
