package main

import (
	"math"
	"testing"
)

// TestAtNominal: only the part of a phase that its lanes spent on the CPU
// is scaled by the machine's speed.
func TestAtNominal(t *testing.T) {
	for _, c := range []struct {
		name                       string
		wall, cpu, speed, expected float64
	}{
		{"quiet machine", 10, 20, 1, 10},
		{"processor-bound on both lanes", 10, 20, 1.25, 8},
		{"mostly asleep", 10, 2, 1.25, 9.8},
		{"more CPU than two lanes hold", 10, 30, 2, 5},
	} {
		if got := atNominal(c.wall, c.cpu, c.speed); math.Abs(got-c.expected) > 1e-9 {
			t.Errorf("%s: atNominal(%v, %v, %v) = %v, want %v", c.name, c.wall, c.cpu, c.speed, got, c.expected)
		}
	}
}

// TestYardstickIsFixedWork: the same work every time, whatever ran before.
func TestYardstickIsFixedWork(t *testing.T) {
	first := yardstickWork()
	if again := yardstickWork(); again != first || first == 0 {
		t.Errorf("yardstick work gave %d and then %d common items", first, again)
	}
}

// TestRoundsScaleWithSeconds: the number of rounds follows --seconds and
// nothing else.
func TestRoundsScaleWithSeconds(t *testing.T) {
	w := workloadSpec{rounds: 10}
	for seconds, want := range map[int]int{runSeconds: 10, 2 * runSeconds: 20, 3: 2, 0: 1} {
		if got := w.roundsFor(seconds); got != want {
			t.Errorf("roundsFor(%d) = %d, want %d", seconds, got, want)
		}
	}
}
