package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// modelOutputSHA256 is the sha256 of the deterministic drivers' printed
// tables, the bytes that
//
//	go run ./cmd/experiments fig1 fig2 table1 fig5 fig6 phases fig7 fig8 fig10 ablations |
//	    grep -v '^(.* in .*)$' | sha256sum
//
// hashes. A change that moves a figure on purpose updates it and says
// why. fig9 and text2sql time real work and stay out.
const modelOutputSHA256 = "5cbf29a3dd96f5391222915e85c2a5a9d4cb359bd994e38d3df4d25f861cef3b"

// TestModelOutputPinned holds the model's quick-mode output to its
// recorded hash: the model steps serving code (faas runs the serving
// control loop), so a serving change can move the paper's figures.
func TestModelOutputPinned(t *testing.T) {
	h := sha256.New()
	for _, d := range []func() Table{
		func() Table { return Fig1(true) },
		func() Table { return Fig2(true) },
		Table1,
		func() Table { return Fig5(true) },
		func() Table { return Fig6(true) },
		FigPhases,
		func() Table { return Fig7(true) },
		func() Table { return Fig8(true) },
		func() Table { return Fig10(true) },
	} {
		fmt.Fprintln(h, d())
		fmt.Fprintln(h)
	}
	for _, a := range []func() Table{AblationWarmCache, AblationStaticSplit, AblationBinaryCache} {
		fmt.Fprintln(h, a())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != modelOutputSHA256 {
		t.Fatalf("model output sha256 = %s, want %s", got, modelOutputSHA256)
	}
}
