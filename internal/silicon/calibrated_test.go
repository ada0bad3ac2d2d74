package silicon

import (
	"fmt"
	"go/format"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/calib"
)

// TestCalibratedConstants pins the checked-in calibrations to the solve
// they come from: calib.Calibrate on each target set, with the paper's
// 1000-read-out window and 16 devices, must reproduce every field bit
// for bit. On a mismatch it prints the replacement declaration; pasting
// it over the one in calibrated.go is how the constants are regenerated
// after a deliberate model change (DESIGN.md, "Calibrated constants").
func TestCalibratedConstants(t *testing.T) {
	for _, c := range []struct {
		name    string
		targets calib.Targets
		have    calib.Result
	}{
		{"paperCalibration", calib.PaperTargets(), paperCalibration},
		{"acceleratedCalibration", calib.AcceleratedTargets(), acceleratedCalibration},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if c.targets.Months != calibratedMonths {
				t.Errorf("targets span %d months, calibratedMonths is %d", c.targets.Months, calibratedMonths)
			}
			want, err := calib.Calibrate(c.targets, 1000, 16)
			if err != nil {
				t.Fatal(err)
			}
			diffs := bitDiffs(reflect.ValueOf(c.have), reflect.ValueOf(want), c.name)
			if len(diffs) > 0 {
				t.Errorf("%s differs from calib.Calibrate in %s; replace its declaration in calibrated.go with:\n\n%s",
					c.name, strings.Join(diffs, ", "), declaration(c.name, want))
			}
		})
	}
}

// bitDiffs returns the path of every float64 leaf of the structs have
// and want whose bits differ. A leaf of another kind is reported too:
// the comparison (and declaration) would not cover it.
func bitDiffs(have, want reflect.Value, path string) []string {
	switch have.Kind() {
	case reflect.Struct:
		var diffs []string
		for i := 0; i < have.NumField(); i++ {
			name := path + "." + have.Type().Field(i).Name
			diffs = append(diffs, bitDiffs(have.Field(i), want.Field(i), name)...)
		}
		return diffs
	case reflect.Float64:
		if math.Float64bits(have.Float()) != math.Float64bits(want.Float()) {
			return []string{fmt.Sprintf("%s (%v, solve %v)", path, have.Float(), want.Float())}
		}
		return nil
	}
	return []string{fmt.Sprintf("%s (unhandled kind %s)", path, have.Kind())}
}

// declaration renders r as a gofmt'ed Go declaration of name, every
// float64 in its shortest round-trip form, which parses back to the
// same bits.
func declaration(name string, r calib.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "var %s = ", name)
	writeLiteral(&b, reflect.ValueOf(r))
	src, err := format.Source([]byte(b.String()))
	if err != nil {
		return b.String()
	}
	return string(src)
}

func writeLiteral(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		fmt.Fprintf(b, "%s{\n", v.Type())
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(b, "%s: ", v.Type().Field(i).Name)
			writeLiteral(b, v.Field(i))
			b.WriteString(",\n")
		}
		b.WriteString("}")
	case reflect.Float64:
		b.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	default:
		fmt.Fprintf(b, "%#v", v.Interface())
	}
}
