//go:build race

package isolation

func init() { raceEnabled = true }
