package dispatch

import (
	"context"
	"errors"
	"strings"
	"testing"

	"wavemin"
)

// TestExecuteSpecRejectsConflictingModes: a spec whose mode list names one
// mode twice with different supplies is a bad spec, refused before any
// solve, not a solver failure.
func TestExecuteSpecRejectsConflictingModes(t *testing.T) {
	spec := testSpec(t, 8, 1, false)
	spec.Modes = []wavemin.Mode{
		{Name: "M1", Supplies: map[string]float64{"a": 1.1}},
		{Name: "M1", Supplies: map[string]float64{"a": 0.9}},
	}
	_, err := ExecuteSpec(context.Background(), spec, 0)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != "bad_spec" {
		t.Fatalf("ExecuteSpec = %v, want a bad_spec RemoteError", err)
	}
	if !strings.Contains(re.Message, `"M1"`) {
		t.Errorf("message %q does not name the mode", re.Message)
	}
}
