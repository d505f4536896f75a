//go:build !race

package racetest

// Enabled is true in a binary built with -race.
const Enabled = false
