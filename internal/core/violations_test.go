package core

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// meetsFmt is Meets as it was first written, with fmt: the reference the
// strconv rendering must match byte for byte.
func meetsFmt(e *Evaluation, b Baseline) (bool, []string) {
	var violations []string
	if e.LoggedFraction > b.MaxLoggedFraction {
		violations = append(violations, fmt.Sprintf("message logging %.1f%% > %.0f%%",
			e.LoggedFraction*100, b.MaxLoggedFraction*100))
	}
	if e.RecoveryFraction > b.MaxRecoveryFraction {
		violations = append(violations, fmt.Sprintf("recovery cost %.1f%% > %.0f%%",
			e.RecoveryFraction*100, b.MaxRecoveryFraction*100))
	}
	if e.EncodeSecondsPerGB > b.MaxEncodeSecPerGB {
		violations = append(violations, fmt.Sprintf("encoding %.0fs/GB > %.0fs/GB",
			e.EncodeSecondsPerGB, b.MaxEncodeSecPerGB))
	}
	if e.CatastropheProb > b.MaxCatastropheProb {
		violations = append(violations, fmt.Sprintf("P(catastrophic) %.2g > %.2g",
			e.CatastropheProb, b.MaxCatastropheProb))
	}
	return len(violations) == 0, violations
}

// violationValues are the values the differential tests render: the
// default bounds themselves, values that round at the printed precision
// (99.95 and its percent form 0.9995), zeros of both signs, the smallest
// subnormal, a huge value, NaN and both infinities.
var violationValues = []float64{
	0.2, 60, 1e-3, 99.95, 0.9995, 0.12345, 0.00125, 0.95, 1.5e-7,
	0, math.Copysign(0, -1), 5e-324, 1e300, -1e300,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// TestViolationRenderMatchesFmt renders every value against every value as
// bound on all four dimensions, and compares each string with the fmt form
// Meets used to print.
func TestViolationRenderMatchesFmt(t *testing.T) {
	ref := [4]func(v, b float64) string{
		func(v, b float64) string { return fmt.Sprintf("message logging %.1f%% > %.0f%%", v*100, b*100) },
		func(v, b float64) string { return fmt.Sprintf("recovery cost %.1f%% > %.0f%%", v*100, b*100) },
		func(v, b float64) string { return fmt.Sprintf("encoding %.0fs/GB > %.0fs/GB", v, b) },
		func(v, b float64) string { return fmt.Sprintf("P(catastrophic) %.2g > %.2g", v, b) },
	}
	for k := range violationForms {
		for _, v := range violationValues {
			for _, b := range violationValues {
				if got, want := violation(k, v, b), ref[k](v, b); got != want {
					t.Errorf("dimension %d, value %v, bound %v: rendered %q, fmt %q", k, v, b, got, want)
				}
			}
		}
	}
}

// TestMeetsMatchesFmt holds Meets to the fmt reference on evaluations with
// each dimension in turn, and all four at once, set to every table value
// against the default baseline — a value exactly at its bound meets it.
func TestMeetsMatchesFmt(t *testing.T) {
	b := DefaultBaseline()
	check := func(e Evaluation) {
		t.Helper()
		ok, got := e.Meets(b)
		wantOK, want := meetsFmt(&e, b)
		if ok != wantOK || !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Errorf("%+v: Meets = %v %q, fmt reference %v %q", e, ok, got, wantOK, want)
		}
	}
	bounds := [4]float64{b.MaxLoggedFraction, b.MaxRecoveryFraction, b.MaxEncodeSecPerGB, b.MaxCatastropheProb}
	for _, v := range append(violationValues, bounds[:]...) {
		for k := range bounds {
			var e Evaluation
			dims := [4]*float64{&e.LoggedFraction, &e.RecoveryFraction, &e.EncodeSecondsPerGB, &e.CatastropheProb}
			*dims[k] = v
			check(e)
		}
		check(Evaluation{LoggedFraction: v, RecoveryFraction: v, EncodeSecondsPerGB: v, CatastropheProb: v})
	}
	if ok, v := (&Evaluation{LoggedFraction: 0.2, RecoveryFraction: 0.2, EncodeSecondsPerGB: 60, CatastropheProb: 1e-3}).Meets(b); !ok || v != nil {
		t.Errorf("an evaluation exactly at every bound: Meets = %v %q, want true and no violation", ok, v)
	}
}
