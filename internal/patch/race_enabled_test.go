//go:build race

package patch

func init() { raceEnabled = true }
