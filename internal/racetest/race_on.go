//go:build race

// Package racetest says whether the binary was built with -race, for tests
// whose bounds the race runtime moves: its instrumentation allocates now and
// then on its own, and sync.Pool drops a quarter of what is put back, so a
// warm pool is not guaranteed.
package racetest

// Enabled is true in a binary built with -race.
const Enabled = true
