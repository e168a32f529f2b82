package wavemin

import (
	"strings"
	"testing"
)

// loadTreeSeeds are the malformed-tree shapes the loader's hardening
// rejected one by one, after one valid tree: wrong format tag, empty node
// list, unknown cell, out-of-range / duplicate IDs, dangling parents,
// non-root node 0, negative or non-finite parasitics, and adjust steps on
// a cell that has none.
var loadTreeSeeds = []string{
	`{"format":"wavemin-clocktree-v1","nodes":[
 {"id":0,"parent":-1,"cell":"BUF_X8","x":10,"y":10},
 {"id":1,"parent":0,"cell":"BUF_X8","x":20,"y":10,"wire_res":1,"wire_cap":2,"sink_cap":8},
 {"id":2,"parent":0,"cell":"INV_X8","x":10,"y":20,"wire_res":1,"wire_cap":2,"sink_cap":8,"domain":"d1"}]}`,
	`{}`,
	`{"format":"wavemin-clocktree-v0","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"NOPE","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":5,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0},{"id":0,"parent":0,"cell":"BUF_X8","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0},{"id":1,"parent":7,"cell":"BUF_X8","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":1,"cell":"BUF_X8","x":0,"y":0},{"id":1,"parent":-1,"cell":"BUF_X8","x":0,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0,"wire_res":-4}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0,"sink_cap":-1}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":1e999,"y":0}]}`,
	`{"format":"wavemin-clocktree-v1","nodes":[{"id":0,"parent":-1,"cell":"BUF_X8","x":0,"y":0,"adjust_steps":{"m1":3}}]}`,
}

// FuzzLoadTree checks the tree loader never panics and every accepted
// tree is internally consistent: LoadTree is the one entry point that
// takes fully untrusted input, and the engine assumes Validate()-level
// invariants everywhere downstream. It also holds the request path to
// the loader: ReadCanonicalTree accepts and refuses what LoadTree does,
// with the same error, and keys an accepted tree as the loaded design.
func FuzzLoadTree(f *testing.F) {
	for _, s := range loadTreeSeeds {
		f.Add(s)
	}
	for _, s := range requestTreeShapes {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkRequestKey(t, []byte(src))
		d, err := LoadTree(strings.NewReader(src))
		if err != nil {
			return
		}
		// Accepted trees must round-trip through SaveTree and hold the
		// structural invariants the solvers rely on.
		if d.Tree.Len() == 0 {
			t.Fatal("accepted empty tree")
		}
		if len(d.Tree.Leaves()) == 0 {
			t.Fatal("accepted tree with no leaves")
		}
		var buf strings.Builder
		if err := d.SaveTree(&buf); err != nil {
			t.Fatalf("accepted tree failed to save: %v", err)
		}
		if _, err := LoadTree(strings.NewReader(buf.String())); err != nil {
			t.Fatalf("saved tree failed to reload: %v", err)
		}
	})
}

// FuzzLoadSinksCSV checks the CSV loader never panics and accepted sinks
// are physically sane.
func FuzzLoadSinksCSV(f *testing.F) {
	f.Add("x_um,y_um,cap_fF\n10,20,8\n")
	f.Add("1,2,3\n")
	f.Add("x_um,y_um,cap_fF\n")
	f.Add(",,\n")
	f.Add("a,b,c\n1,2,3")
	f.Fuzz(func(t *testing.T, src string) {
		sinks, err := LoadSinksCSV(strings.NewReader(src))
		if err != nil {
			return
		}
		for _, s := range sinks {
			if s.Cap <= 0 {
				t.Fatalf("accepted non-positive cap %g", s.Cap)
			}
		}
	})
}
