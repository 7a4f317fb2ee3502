//go:build race

package rules

func init() { raceEnabled = true }
