//go:build race

package nn

// raceDetector reports that the tests run under -race, where the
// one-accumulator reference convolution over cifar-10 takes minutes.
const raceDetector = true
