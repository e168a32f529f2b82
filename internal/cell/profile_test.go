package cell

import "testing"

func TestCharacterizeConsistency(t *testing.T) {
	c := DefaultLibrary().MustByName("BUF_X8")
	p := Characterize(c, 4, 1.1)
	if p.TD != c.Delay(4, 1.1) {
		t.Fatal("profile TD disagrees with cell delay")
	}
	if p.SlewOut != c.Slew(4, 1.1) {
		t.Fatal("profile slew disagrees with cell slew")
	}
	if p.PeakPlus() <= p.PeakMinus() {
		t.Fatal("buffer profile should have P+ > P-")
	}
	// Peaks from the profile should track the closed-form peaks (profiling
	// includes the ProfileSlew widening, so allow slack).
	if p.PeakPlus() > c.PeakPlus(4, 1.1) {
		t.Fatalf("profiled P+ %g exceeds closed-form %g (slew should only flatten)",
			p.PeakPlus(), c.PeakPlus(4, 1.1))
	}
}
