package silicon

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/rng"
)

// TestLambdaFloorContract pins each built-in model's tail-guard floor.
// The floors are part of the model contract: the i.i.d. 0.1 is what the
// paper's AVG-to-WC calibration was performed with (changing it silently
// re-calibrates every campaign), and the correlated model deliberately
// tightens it to 0.5 — large-array process control does not produce
// 0.1·Lambda outliers, so such a draw is a modelling error.
func TestLambdaFloorContract(t *testing.T) {
	for name, want := range map[string]float64{ModelIID: 0.1, ModelCorrelated: 0.5} {
		m, err := LookupModel(name)
		if err != nil {
			t.Fatalf("LookupModel(%q): %v", name, err)
		}
		if got := m.LambdaFloor(); got != want {
			t.Errorf("model %q: LambdaFloor = %v, want %v", name, got, want)
		}
	}
}

// TestSampleParamsClampsAtModelFloor is the regression test for the
// tail guard: a profile with an absurd lambda jitter must never yield a
// per-device lambda below floor·Lambda, and the clamp must land exactly
// on floor·Lambda (not merely near it) — the calibration treats the
// floor as a hard boundary, not a soft one.
func TestSampleParamsClampsAtModelFloor(t *testing.T) {
	base, err := ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	base.LambdaRelJitter = 5 // ~42% of draws fall below any sane floor
	for _, name := range []string{ModelIID, ModelCorrelated} {
		m, err := LookupModel(name)
		if err != nil {
			t.Fatal(err)
		}
		floor := m.LambdaFloor() * base.Lambda
		clamped := 0
		src := rng.New(42)
		for i := 0; i < 2000; i++ {
			d := m.SampleParams(base, src)
			if d.Lambda < floor {
				t.Fatalf("model %q: draw %d: lambda %v below floor %v", name, i, d.Lambda, floor)
			}
			if d.Lambda == floor {
				clamped++
			}
		}
		if clamped == 0 {
			t.Errorf("model %q: no draw hit the floor exactly; the clamp is not exercised", name)
		}
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	want, err := ATmega32u4()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"atmega32u4", "ATmega32u4", "  AtMeGa32U4 "} {
		got, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("Lookup(%q) = %+v, want the canonical profile", name, got)
		}
	}
}

func TestLookupUnknownListsRegisteredNames(t *testing.T) {
	_, err := Lookup("no-such-chip")
	if !errors.Is(err, ErrUnknownProfile) {
		t.Fatalf("unknown name error is not ErrUnknownProfile: %v", err)
	}
	// The message must enumerate the live registry — a profile registered
	// by an embedding program shows up with no error-message change.
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered profile %q", err, name)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	// "atmega32u4" is registered by this package's init.
	Register("ATmega32u4", func() (DeviceProfile, error) { return atmega32u4(), nil })
}

func TestLookupModelEmptyIsIID(t *testing.T) {
	m, err := LookupModel("")
	if err != nil {
		t.Fatal(err)
	}
	if m.ModelName() != ModelIID {
		t.Fatalf("empty model name resolved to %q, want %q", m.ModelName(), ModelIID)
	}
}

// TestSampleSkewPrefixStable pins the SampleSkew contract package sram
// builds on: for every registered model, filling only the read window
// draws exactly the window-long prefix of a whole-array fill, whether
// cache lines tile the window, cut through its end, outgrow it, or span
// the whole array.
func TestSampleSkewPrefixStable(t *testing.T) {
	const sramBytes, windowBytes = 256, 32 // 2048 cells, 256-bit window
	for _, name := range ModelNames() {
		m, err := LookupModel(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, lc := range []struct {
			name string
			bits int
		}{
			{"line divides window", 64},
			{"line does not divide window", 96},
			{"line longer than window", 512},
			{"whole-array line", 0},
		} {
			p := DeviceProfile{
				Name:            "prefix-test",
				SRAMBytes:       sramBytes,
				ReadWindowBytes: windowBytes,
				Model:           name,
				LineBits:        lc.bits,
				LineCorr:        0.3,
			}
			d := DeviceParams{Lambda: 0.9, Mu: 0.4}
			n, w := p.Cells(), p.ReadWindowBits()
			fullStatic, fullGamma := make([]float64, n), make([]float64, n)
			m.SampleSkew(p, d, rng.New(5), fullStatic, fullGamma)
			winStatic, winGamma := make([]float64, w), make([]float64, w)
			m.SampleSkew(p, d, rng.New(5), winStatic, winGamma)
			for i := 0; i < w; i++ {
				if winStatic[i] != fullStatic[i] || winGamma[i] != fullGamma[i] {
					t.Fatalf("model %q, %s: cell %d window fill (%v, %v), whole-array fill (%v, %v)",
						name, lc.name, i, winStatic[i], winGamma[i], fullStatic[i], fullGamma[i])
				}
			}
		}
	}
}
