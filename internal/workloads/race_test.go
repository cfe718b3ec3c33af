//go:build race

package workloads_test

func init() { raceEnabled = true }
