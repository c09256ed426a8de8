//go:build !race

package scorep_test

const raceDetector = false
