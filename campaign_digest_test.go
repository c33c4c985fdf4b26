package ballista_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ballista"
)

// campaignDigestCap keeps the pin cheap enough for tier 1 while still
// exercising every MuT of every profile.
const campaignDigestCap = 10

// TestCampaignCSVDigests pins the per-MuT CSV of every profile's
// campaign at cap 10 to the sha256 digests in
// testdata/campaign-cap10.sha256.  A substrate change that shifts any
// single case's outcome on any profile changes a CSV row and fails here.
// The file is sha256sum output over the CSVs `ballista -os <name> -cap
// 10 -csv <name>.csv` writes, so it regenerates with
//
//	for o in win95 win98 win98se wince winnt win2000 linux; do
//	  go run ./cmd/ballista -os $o -cap 10 -csv $o.csv >/dev/null; done
//	sha256sum *.csv > testdata/campaign-cap10.sha256
func TestCampaignCSVDigests(t *testing.T) {
	want := readDigests(t, filepath.Join("testdata", "campaign-cap10.sha256"))
	oses := ballista.AllOSes()
	if len(want) != len(oses) {
		t.Errorf("digest file pins %d profiles, want %d", len(want), len(oses))
	}
	for _, o := range oses {
		name := o.WireName() + ".csv"
		res, err := ballista.Run(o, ballista.WithCap(campaignDigestCap))
		if err != nil {
			t.Fatalf("%s campaign: %v", o, err)
		}
		sum := sha256.Sum256(campaignCSV(t, o, res))
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: CSV digest %s, want %s", name, got, want[name])
		}
	}
}

// readDigests parses sha256sum output into file name -> hex digest.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
