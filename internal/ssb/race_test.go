//go:build race

package ssb

func init() { raceEnabled = true }
