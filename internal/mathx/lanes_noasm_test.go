//go:build !amd64 || race

package mathx

// forEachPath runs f on the only kernel path this build has: the portable
// bodies.
func forEachPath(f func(path string)) { f("portable") }
