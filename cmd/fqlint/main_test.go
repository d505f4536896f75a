package main

import (
	"testing"

	"fusionq/internal/lint"
)

// TestExitStatus pins the documented exit status: 1 for a finding, 0 when
// the same finding is suppressed, and 2 for a pattern that does not load.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		pattern string
		want    int
	}{
		{"./testdata/finding", 1},
		{"./testdata/ignored", 0},
		{"./testdata/missing", 2},
	} {
		if got := standalone([]string{tc.pattern}, lint.All()); got != tc.want {
			t.Errorf("standalone(%s) = %d, want %d", tc.pattern, got, tc.want)
		}
	}
}
