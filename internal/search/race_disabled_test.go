//go:build !race

package search

const raceDetectorEnabled = false
