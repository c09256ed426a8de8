//go:build race

package otf2

// raceDetector reports that the tests run under the race detector, where
// a walk over every byte offset of an archive costs ten times as much.
const raceDetector = true
