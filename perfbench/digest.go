package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// digests.json records, per workload and seed, the sha256 over every
// Result the workload's simulations produce. A change that is meant only
// to make the program faster must leave every recorded digest unchanged.
//
//go:embed digests.json
var recordedDigests []byte

// checkDigest compares a workload's Result digest with the recorded one
// for this seed, when one is recorded, and prints it either way so a
// deliberate change of simulated numbers can re-record it.
func checkDigest(t *tally, workload string, seed int64, got string) {
	fmt.Printf("digest %s seed=%d %s\n", workload, seed, got)
	var table map[string]map[string]string
	if err := json.Unmarshal(recordedDigests, &table); err != nil {
		t.op(fmt.Errorf("digests.json: %w", err))
		return
	}
	want, ok := table[workload][strconv.FormatInt(seed, 10)]
	if !ok {
		return
	}
	t.check(got == want, "%s seed %d: Result digest %s differs from the recorded %s", workload, seed, got, want)
}
