//go:build race

package search

// raceDetectorEnabled reports whether this test binary was built with
// -race; TestCertifyTable skips itself there, since it is single-threaded
// and the detector makes its 200k-document scans ten times slower.
const raceDetectorEnabled = true
