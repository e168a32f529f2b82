package shard

// Live-map transitions: the rules that let a fleet change its partition
// without restarting. A map is immutable once published; a rebalance
// publishes a successor with Version+1, and the successor is constrained
// so that any two ADJACENT versions route compatibly: at most one
// bucket's owner differs (replica sets may change freely — replicas are
// read-only fallbacks, never authorities). A node that is one version
// behind therefore misroutes at most one bucket's keys, and the receiver
// detects the skew by version header and answers 409 shard_map_version;
// nothing is ever silently written to the wrong shard.
//
// Nodes converge by adoption: ShouldAdopt is the single gate every
// gossiped, piggybacked, or operator-injected map passes through. It
// admits only structurally valid maps of the same shape (PrefixBits and
// Shards are fixed for a fleet's lifetime) with a STRICTLY higher
// version, so convergence is monotone — a node never moves backward,
// and two nodes that have seen the same set of maps hold the same one.

import (
	"errors"
	"fmt"
)

// ErrStaleVersion marks a candidate map whose version is not newer than
// the current one. It is the "ignore, don't reject" outcome of
// ShouldAdopt: an old map circulating in gossip is normal during a
// rebalance, not a protocol violation.
var ErrStaleVersion = errors.New("shard: map version not newer than current")

// MoveBucket returns the successor of m (Version+1) in which bucket is
// owned by newOwner. The old owner replaces newOwner in the bucket's
// replica set when the map carries one: it still holds the bucket's
// artifacts, so it is the natural first reader after the flip.
func (m *Map) MoveBucket(bucket, newOwner int) (*Map, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if bucket < 0 || bucket >= len(m.Assign) {
		return nil, fmt.Errorf("shard: bucket %d outside 0..%d", bucket, len(m.Assign)-1)
	}
	if newOwner < 0 || newOwner >= m.Shards {
		return nil, fmt.Errorf("shard: new owner %d outside 0..%d", newOwner, m.Shards-1)
	}
	oldOwner := m.Assign[bucket]
	if newOwner == oldOwner {
		return nil, fmt.Errorf("shard: bucket %d already owned by %d", bucket, newOwner)
	}
	out := m.Clone()
	out.Version++
	out.Assign[bucket] = newOwner
	if out.Replicas != nil {
		set := out.Replicas[bucket]
		replaced := false
		for i, s := range set {
			if s == newOwner {
				set[i] = oldOwner
				replaced = true
				break
			}
		}
		if !replaced {
			out.Replicas[bucket] = append(set, oldOwner)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// Diff reports how two same-shape maps differ: the buckets whose owner
// changed and the buckets whose replica set changed. Shape disagreement
// (PrefixBits or Shards) is an error — such maps are not comparable.
func Diff(a, b *Map) (moved, replicaChanged []int, err error) {
	if a == nil || b == nil {
		return nil, nil, fmt.Errorf("shard: diff of nil map")
	}
	if a.PrefixBits != b.PrefixBits || a.Shards != b.Shards {
		return nil, nil, fmt.Errorf("shard: maps differ in shape (%d/%d bits, %d/%d shards)",
			a.PrefixBits, b.PrefixBits, a.Shards, b.Shards)
	}
	if len(a.Assign) != len(b.Assign) {
		return nil, nil, fmt.Errorf("shard: assignment tables cover %d vs %d buckets", len(a.Assign), len(b.Assign))
	}
	for bk := range a.Assign {
		if a.Assign[bk] != b.Assign[bk] {
			moved = append(moved, bk)
		}
		if !replicaSetEqual(bucketReplicas(a, bk), bucketReplicas(b, bk)) {
			replicaChanged = append(replicaChanged, bk)
		}
	}
	return moved, replicaChanged, nil
}

func bucketReplicas(m *Map, bucket int) []int {
	if m.Replicas == nil {
		return nil
	}
	return m.Replicas[bucket]
}

func replicaSetEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ValidTransition checks that next is a legal immediate successor of
// cur: both valid, same shape, Version exactly cur.Version+1, and at
// most one bucket's owner moved. Replica-set changes are unconstrained.
func ValidTransition(cur, next *Map) error {
	if err := cur.Validate(); err != nil {
		return fmt.Errorf("shard: transition from invalid map: %w", err)
	}
	if err := next.Validate(); err != nil {
		return fmt.Errorf("shard: transition to invalid map: %w", err)
	}
	if next.Version != cur.Version+1 {
		return fmt.Errorf("shard: transition must bump version by one (%d -> %d)", cur.Version, next.Version)
	}
	moved, _, err := Diff(cur, next)
	if err != nil {
		return err
	}
	if len(moved) > 1 {
		return fmt.Errorf("shard: transition moves %d buckets, at most one may move per version", len(moved))
	}
	return nil
}

// ShouldAdopt is the adoption gate every incoming map passes through —
// anti-entropy pulls, maps piggybacked on forwards and handoff writes,
// and operator injection alike. nil means cand supersedes cur and the
// node should adopt it.
//
//   - ErrStaleVersion: cand is not newer — ignore it (count, don't
//     reject; old maps circulate legitimately during a rebalance).
//   - Any other error: cand is invalid or incompatible — reject it.
//
// An adjacent candidate (cur.Version+1) must additionally satisfy the
// single-bucket-move rule; a farther jump cannot be checked stepwise
// (the intermediate maps are not available) and is admitted on shape
// and validity alone, which is what lets a long-partitioned node catch
// up without replaying history.
func ShouldAdopt(cur, cand *Map) error {
	if cur == nil {
		return fmt.Errorf("shard: no current map to compare against")
	}
	if err := cand.Validate(); err != nil {
		return err
	}
	if cand.PrefixBits != cur.PrefixBits || cand.Shards != cur.Shards {
		return fmt.Errorf("shard: candidate map shape (%d bits, %d shards) differs from fleet's (%d bits, %d shards)",
			cand.PrefixBits, cand.Shards, cur.PrefixBits, cur.Shards)
	}
	if cand.Version <= cur.Version {
		return fmt.Errorf("%w (candidate %d, current %d)", ErrStaleVersion, cand.Version, cur.Version)
	}
	if cand.Version == cur.Version+1 {
		return ValidTransition(cur, cand)
	}
	return nil
}
