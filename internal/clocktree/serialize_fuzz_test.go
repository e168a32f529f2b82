package clocktree

import (
	"bytes"
	"strings"
	"testing"

	"wavemin/internal/cell"
)

// hostileTrees are serialized trees shaped to split a hand-written decoder
// or writer from encoding/json and the reference reader: shuffled node
// order, duplicate and case-variant keys, unknown fields, -0, floats at the
// 'f'/'e' switch, names encoding/json escapes, empty and multi-mode adjust
// steps, trailing and truncated input, and every structural fault the
// checks order: self-loops, cycles, orphans and misplaced roots.
var hostileTrees = []string{
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":2,"parent":1,"cell":"INV_X8","x":5,"y":6,"sink_cap":8},{"id":0,"parent":-1,"cell":"BUF_X16","x":1,"y":2},{"id":1,"parent":0,"cell":"BUF_X8","x":3,"y":4,"wire_res":0.25}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","cell":"INV_X4","x":1,"x":2,"y":3}]}`,
	`{"FORMAT":"wavemin-clocktree-v1","Nodes":[{"ID":0,"Parent":-1,"CELL":"BUF_X8","X":3,"y":4},{"Id":1,"pArEnT":0,"cell":"BUF_X8","x":1,"y":1,"Wire_Res":1,"SINK_CAP":2}]}`,
	`{"format":"wavemin-clocktree-v1","extra":[1,{"a":null}],"nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":1,"y":1,"color":"red","children":[1]}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":-0,"y":-0.0,"wire_res":-0,"sink_cap":-0.0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":1e-7,"y":1e21,"wire_res":1E-300,"wire_cap":9.999999e-7,"sink_cap":123456789012345678901234}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":-5,"y":-7,"domain":"<a&b>"},{"id":1,"parent":0,"cell":"ADB_X8","x":-1,"y":-2,"domain":"\u2028\u2029","adjust_steps":{"m<1":2,"M>":0,"&":1,"\u2028":1}}]}`,
	"{\"format\":\"wavemin-clocktree-v1\",\"nodes\":[{\"id\":0,\"parent\":-1,\"cell\":\"BUF_X8\",\"x\":0,\"y\":0,\"domain\":\"\xff\xfe\\u0000\\t\"}]}",
	"{\"format\":\"wavemin-clocktree-v1\",\"nodes\":[{\"id\":0,\"parent\":-1,\"cell\":\"BUF_X8\xff\",\"x\":0,\"y\":0}]}",
	"{\"format\":\"wavemin-clocktree-v1\",\"nodes\":[{\"id\":0,\"parent\":-1,\"cell\":\"BUF_X8\",\"x\":0,\"y\":0,\"domain\":\"a\u2028b\\u2029c\"}]}",
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0,"adjust_steps":{}},{"id":1,"parent":0,"cell":"ADI_X8","x":1,"y":1,"adjust_steps":{"M3":3,"M1":0,"M2":1}}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"ADB_X8","x":0,"y":0,"adjust_steps":{"b":99,"a":-1,"c":2}}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0,"adjust_steps":null,"domain":null,"wire_cap":null}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]} trailing {"ignored":true}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8"`,
	``,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0},{"id":1,"parent":1,"cell":"BUF_X8","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0},{"id":1,"parent":2,"cell":"BUF_X8","x":0,"y":0},{"id":2,"parent":1,"cell":"BUF_X8","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0},{"id":1,"parent":-1,"cell":"BUF_X8","x":0,"y":0},{"id":2,"parent":2,"cell":"BUF_X8","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":1,"parent":0,"cell":"BUF_X8","x":0,"y":0},{"id":0,"parent":1,"cell":"BUF_X8","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-3,"cell":"BUF_X8","x":0,"y":0},{"id":1,"parent":9,"cell":"BUF_X8","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0},{"id":1,"parent":0,"cell":"BUF_X8","x":0,"y":0,"wire_res":-1,"sink_cap":-2}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":1e0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]}`,
}

// FuzzReadJSON checks the tree deserializer never panics, that it and the
// request path's CanonicalJSON accept, refuse and word their errors as the
// reference reader does, and that an accepted tree's WriteJSON bytes —
// which CanonicalJSON returns without building the tree — are
// encoding/json's.
func FuzzReadJSON(f *testing.F) {
	lib := cell.DefaultLibrary()
	tr := New(lib.MustByName("BUF_X16"), 0, 0)
	leaf := tr.AddChild(tr.Root(), lib.MustByName("BUF_X8"), 10, 10, 0.1, 5)
	tr.SetSinkCap(leaf, 8)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]}`)
	f.Add(`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":0,"cell":"BUF_X8"}]}`)
	f.Add(`{}`)
	for _, src := range hostileTrees {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkAgainstReferences(t, src, lib)
		got, err := ReadJSON(strings.NewReader(src), lib)
		if err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("accepted an invalid tree: %v", err)
		}
		// Timing must not panic either.
		_ = got.ComputeTiming(NominalMode)
	})
}
