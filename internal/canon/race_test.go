//go:build race

package canon_test

// raceEnabled reports a -race build, where sync.Pool drops recycled
// buffers at random and allocation counts mean nothing.
const raceEnabled = true
