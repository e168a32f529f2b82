package dispatch

import (
	"context"
	"errors"
	"strings"
	"testing"

	"wavemin"
)

// TestExecuteSpecRejectsConflictingModes: a spec whose mode list names one
// mode twice with different supplies, or holds a mode without a name, is a
// bad spec, refused before any solve, not a solver failure.
func TestExecuteSpecRejectsConflictingModes(t *testing.T) {
	for _, tc := range []struct {
		modes []wavemin.Mode
		want  string // in the error message
	}{
		{[]wavemin.Mode{
			{Name: "M1", Supplies: map[string]float64{"a": 1.1}},
			{Name: "M1", Supplies: map[string]float64{"a": 0.9}},
		}, `"M1"`},
		{[]wavemin.Mode{{Supplies: map[string]float64{"a": 0.9}}}, "no name"},
	} {
		spec := testSpec(t, 8, 1, false)
		spec.Modes = tc.modes
		_, err := ExecuteSpec(context.Background(), spec, 0)
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != "bad_spec" {
			t.Fatalf("ExecuteSpec = %v, want a bad_spec RemoteError", err)
		}
		if !strings.Contains(re.Message, tc.want) {
			t.Errorf("message %q does not contain %s", re.Message, tc.want)
		}
	}
}
