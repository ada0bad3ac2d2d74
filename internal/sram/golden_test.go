package sram

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
	"repro/internal/silicon"
)

// TestReadOutGolden pins the hashed read-outs of an i.i.d. chip and a
// cache-line-correlated chip at months 0, 1 and 24: four windows per
// month, hashed word by word. The digests were recorded when the array
// still simulated every cell of the SRAM, so they also pin that
// simulating only the read window leaves every read-out unchanged.
func TestReadOutGolden(t *testing.T) {
	for _, tc := range []struct {
		profile string
		want    string
	}{
		{"atmega32u4", "78c93800804abc311e8ee2d9e11dae1c9542d10d67463f39a6ca987d7ed45257"},
		{"fleetnode-2kb", "bd5835435048d5e7520e8b627e1c9a75b029428e7f9be0f27a185bcac3124e4b"},
	} {
		p, err := silicon.Lookup(tc.profile)
		if err != nil {
			t.Fatal(err)
		}
		a, err := New(p, rng.New(20170208))
		if err != nil {
			t.Fatal(err)
		}
		if err := a.SetNoiseScale(p.NoiseScale()); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		w := bitvec.New(p.ReadWindowBits())
		var buf [8]byte
		for _, month := range []float64{0, 1, 24} {
			if err := a.AgeTo(month); err != nil {
				t.Fatal(err)
			}
			for n := 0; n < 4; n++ {
				if err := a.PowerUpWindowInto(w); err != nil {
					t.Fatal(err)
				}
				for _, word := range w.Words() {
					binary.LittleEndian.PutUint64(buf[:], word)
					h.Write(buf[:])
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: read-out digest %s, want %s", tc.profile, got, tc.want)
		}
	}
}
