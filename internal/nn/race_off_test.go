//go:build !race

package nn

const raceDetector = false
