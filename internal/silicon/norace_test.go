//go:build !race

package silicon_test

const raceEnabled = false
