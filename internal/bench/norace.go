//go:build !race

package bench

// raceDetector reports a build instrumented by the race detector, whose
// wall-clock numbers are not comparable with the committed artifacts.
const raceDetector = false
