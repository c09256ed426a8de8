//go:build !race

package otf2

const raceDetector = false
