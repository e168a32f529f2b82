package cell

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"wavemin/internal/waveform"
)

// currentsDigestPinned is currentsDigest as computed when Currents drew
// its triangles inline, before it was rebuilt from Pulses.
const currentsDigestPinned = "25db8f6fe7285bc74c6b07d12004d72243e38a6023e2fa873944f4cbb60229a6"

// currentsDigest hashes the bits of every sample of every waveform
// Currents returns over both analytic libraries and the Table-pinned
// paper cells, at loads, supplies and slews on and off the pinned points.
func currentsDigest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, lib := range []*Library{DefaultLibrary(), PaperLibrary()} {
		for _, c := range lib.Cells() {
			for _, e := range []Edge{Rising, Falling} {
				for _, load := range []float64{0, 3.5, 12, 40} {
					for _, vdd := range []float64{0.9, 1.0, 1.1} {
						for _, slew := range []float64{5, 20, 60} {
							idd, iss := c.Currents(e, load, vdd, slew)
							for _, w := range []waveform.Waveform{idd, iss} {
								put(uint64(w.Len()))
								for _, p := range w.Points() {
									put(math.Float64bits(p.T))
									put(math.Float64bits(p.I))
								}
							}
						}
					}
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCurrentsBitsPinned: Currents draws the Pulses triangles, and every
// waveform it returns must keep its exact bits — zone keys, zone
// solutions and the figures all read them.
func TestCurrentsBitsPinned(t *testing.T) {
	if got := currentsDigest(); got != currentsDigestPinned {
		t.Fatalf("Currents digest %s, pinned %s: the cell waveforms changed bits, so zone solutions change too (bump zonecache.KeyFormat and re-pin)", got, currentsDigestPinned)
	}
}
