package spes

import "testing"

// TestPipelineFuzzIncrementalParity holds the fuzz distribution (a second
// seed) to the verdicts incremental sessions and one-shot solving agreed
// on; see checkPipelineFuzzGolden.
func TestPipelineFuzzIncrementalParity(t *testing.T) {
	checkPipelineFuzzGolden(t, 602214, "pipeline_fuzz_incremental_parity.golden.json")
}
