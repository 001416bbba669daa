package lib

import "testing"

// Tests pass WithColor and set Config.Verbose; the analysis reads no test
// file, so both stay flagged.
func TestOnlyTestsReach(t *testing.T) {
	WithColor("red")(&Config{Verbose: true})
}
