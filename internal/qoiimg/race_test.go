//go:build race

package qoiimg

func init() { raceEnabled = true }
