package core

import (
	"errors"
	"fmt"
	"testing"
)

// TestReasonTable: every row's error encodes under its token, decodes
// back to an error that satisfies the row's sentinel with the token
// removed, and re-encodes to the same text. A token-shaped text from
// anywhere else stays a plain error.
func TestReasonTable(t *testing.T) {
	for _, r := range reasons {
		err := fmt.Errorf("label: %w", r.err)
		text := EncodeReason(err)
		if want := r.token + ": " + err.Error(); text != want {
			t.Errorf("EncodeReason(%q) = %q, want %q", err, text, want)
		}
		back := DecodeReason(text)
		if !errors.Is(back, r.err) || back.Error() != err.Error() || EncodeReason(back) != text {
			t.Errorf("DecodeReason(%q) = %q (Is %v), want %q satisfying the sentinel", text, back, errors.Is(back, r.err), err)
		}
	}

	spoof := EncodeReason(errors.New("in_flight: x"))
	if spoof != "error: in_flight: x" {
		t.Fatalf("EncodeReason of a token-shaped text = %q", spoof)
	}
	if back := DecodeReason(spoof); errors.Is(back, ErrInFlight) || back.Error() != "in_flight: x" {
		t.Fatalf("DecodeReason(%q) = %q, Is ErrInFlight %v", spoof, back, errors.Is(back, ErrInFlight))
	}
	if back := DecodeReason("overloaded: queue too old"); back.Error() != "overloaded: queue too old" {
		t.Fatalf("untokened text decoded as %q", back)
	}
}
