package main

import (
	"testing"
	"time"
)

func TestParseProcStat(t *testing.T) {
	// The command name holds spaces and a ')' of its own.
	stat := "4242 (dandelion) x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 321 123 0 0 20 0 9 0 100 200 300"
	got, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := (321 + 123) * 10 * time.Millisecond; got != want {
		t.Errorf("cpu time = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 a b c"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tdandelion\nVmPeak:\t 1234 kB\nVmHWM:\t   20564 kB\nVmRSS:\t   100 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 20564 {
		t.Errorf("VmHWM = %d, %v; want 20564", got, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("a status without VmHWM parsed")
	}
}

func TestServerStatsAbsentField(t *testing.T) {
	s := serverStats{"Invocations": 7.0, "Tenants": []any{
		map[string]any{"Tenant": "a", "P99DispatchWait": 5.0},
		map[string]any{"Tenant": "b", "P99DispatchWait": 9.0},
	}}
	if v := s.num("Invocations"); v == nil || *v != 7 {
		t.Errorf("Invocations = %v", v)
	}
	if s.num("Removed") != nil {
		t.Error("absent field reported present")
	}
	if v := s.tenantNum("", "P99DispatchWait"); v == nil || *v != 9 {
		t.Errorf("worst tenant = %v, want 9", v)
	}
	if v := s.tenantNum("a", "P99DispatchWait"); v == nil || *v != 5 {
		t.Errorf("tenant a = %v, want 5", v)
	}
	if s.tenantNum("a", "Removed") != nil {
		t.Error("absent tenant field reported present")
	}
	if div(delta(s, s, "Removed"), delta(s, s, "Invocations")) != nil {
		t.Error("a ratio over an absent field must be null")
	}
	zero := 0.0
	if q := div(s.num("Invocations"), &zero); q == nil || *q != 0 {
		t.Errorf("a ratio over a zero base = %v, want 0", q)
	}
}
