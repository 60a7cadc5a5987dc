package greenmatch

// Series golden: the per-slot time series of every shipped scenario, with
// RecordSeries forced on, is pinned by digest against a committed golden.
// The skip-equivalence suites only compare the fast and full paths within
// one build, so a recording bug both paths share would pass them; this
// golden catches it across commits. Regenerate (only for an intentional
// behaviour change) with:
//
//	go test -run TestSeriesGolden -update .

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

const seriesGoldenPath = "testdata/series.golden"

// seriesDigest is the sha256 of the JSON encoding of a run's per-slot
// samples. encoding/json writes floats in their shortest round-trip form,
// so equal digests mean bit-identical series.
func seriesDigest(t *testing.T, res *core.Result) string {
	t.Helper()
	if res.Series == nil {
		t.Fatal("run recorded no series")
	}
	b, err := json.Marshal(res.Series.Samples)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// readSeriesGolden parses "name sha256" lines.
func readSeriesGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(seriesGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = sum
	}
	return want
}

func TestSeriesGolden(t *testing.T) {
	files, err := filepath.Glob("scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no scenario files found")
	}
	update := *updateGolden || os.Getenv("UPDATE_GOLDEN") != ""
	var want map[string]string
	if !update {
		want = readSeriesGolden(t)
	}
	var mu sync.Mutex
	got := map[string]string{}
	t.Run("scenarios", func(t *testing.T) {
		for _, file := range files {
			file := file
			name := strings.TrimSuffix(filepath.Base(file), ".json")
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				f, err := os.Open(file)
				if err != nil {
					t.Fatal(err)
				}
				sc, err := scenario.Read(f)
				f.Close()
				if err != nil {
					t.Fatal(err)
				}
				cfg, err := sc.Scaled(goldenScale).Compile()
				if err != nil {
					t.Fatal(err)
				}
				cfg.RecordSeries = true
				res, err := core.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sum := seriesDigest(t, res)
				mu.Lock()
				got[name] = sum
				mu.Unlock()
				if !update && want[name] != sum {
					t.Errorf("series of %s drifted from golden: want %s, got %s", name, want[name], sum)
				}
			})
		}
	})
	if !update {
		return
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s\n", name, got[name])
	}
	if err := os.WriteFile(seriesGoldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("golden updated: %s", seriesGoldenPath)
}
