package peakmin

import (
	"context"
	"errors"
	"testing"
	"time"
)

func cancelLayers() [][]Option {
	return [][]Option{
		{{Peak: 100, IsBuffer: true}, {Peak: 100, IsBuffer: false}},
		{{Peak: 100, IsBuffer: true}, {Peak: 100, IsBuffer: false}},
	}
}

func TestSolveCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, cancelLayers(), 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSolveDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, err := Solve(ctx, cancelLayers(), 0.5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
