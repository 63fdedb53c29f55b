//go:build race

package kv

// raceEnabled: the race detector makes sync.Pool drop a share of the
// values put into it, so a pooled object is allocated afresh at random and
// allocation counts are not what the plain build makes.
const raceEnabled = true
