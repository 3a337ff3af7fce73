//go:build race

package exp

func init() { raceDetector = true }
