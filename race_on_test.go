//go:build race

package scorep_test

// raceDetector reports that the tests run under the race detector, which
// drops one sync.Pool.Put in four: an allocation total that counts
// pooled buffers means nothing there.
const raceDetector = true
