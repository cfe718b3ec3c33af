package faas

// CostProfile is the per-phase sandbox creation latency breakdown from
// Table 1 of the paper, in microseconds, plus execution characteristics
// used by the performance model.
type CostProfile struct {
	MarshalUS  float64 // marshal requests
	LoadUS     float64 // load binary from disk
	TransferUS float64 // transfer input
	ExecuteUS  float64 // execute function (sandbox entry/exit overhead)
	OutputUS   float64 // get/send output
	OtherUS    float64 // everything else
	// ComputeFactor scales pure compute time relative to native code
	// (rWasm's transpiled code runs slower, §7.3).
	ComputeFactor float64
	// CachedLoadUS replaces LoadUS when the binary is already in the
	// in-memory cache (§7.4 cached vs. uncached).
	CachedLoadUS float64
}

// TotalUS is the unloaded cold-start latency (the Table 1 "Total" row).
func (c CostProfile) TotalUS() float64 {
	return c.MarshalUS + c.LoadUS + c.TransferUS + c.ExecuteUS + c.OutputUS + c.OtherUS
}

// ColdStartUS reports cold-start latency with or without the binary
// cache.
func (c CostProfile) ColdStartUS(cached bool) float64 {
	if cached {
		return c.TotalUS() - c.LoadUS + c.CachedLoadUS
	}
	return c.TotalUS()
}

// Profiles measured on the Arm Morello board (Table 1).
var (
	MorelloCheri = CostProfile{
		MarshalUS: 12, LoadUS: 29, TransferUS: 2, ExecuteUS: 5,
		OutputUS: 9, OtherUS: 32, ComputeFactor: 1.0, CachedLoadUS: 4,
	}
	MorelloRWasm = CostProfile{
		MarshalUS: 15, LoadUS: 147, TransferUS: 2, ExecuteUS: 20,
		OutputUS: 12, OtherUS: 45, ComputeFactor: 2.6, CachedLoadUS: 18,
	}
	MorelloProcess = CostProfile{
		MarshalUS: 12, LoadUS: 54, TransferUS: 6, ExecuteUS: 371,
		OutputUS: 9, OtherUS: 34, ComputeFactor: 1.0, CachedLoadUS: 7,
	}
	MorelloKVM = CostProfile{
		MarshalUS: 30, LoadUS: 194, TransferUS: 2, ExecuteUS: 536,
		OutputUS: 25, OtherUS: 102, ComputeFactor: 1.0, CachedLoadUS: 24,
	}
)

// Profiles on the default x86 server with Linux 5.15 (§7.2 reports
// totals of 109, 539, and 218 µs for rWasm, process, and KVM). Phase
// breakdowns are scaled from the Morello profiles to match those totals.
var (
	X86RWasm   = scaleProfile(MorelloRWasm, 109.0/241.0)
	X86Process = scaleProfile(MorelloProcess, 539.0/486.0)
	X86KVM     = scaleProfile(MorelloKVM, 218.0/889.0)
)

func scaleProfile(p CostProfile, f float64) CostProfile {
	return CostProfile{
		MarshalUS: p.MarshalUS * f, LoadUS: p.LoadUS * f,
		TransferUS: p.TransferUS * f, ExecuteUS: p.ExecuteUS * f,
		OutputUS: p.OutputUS * f, OtherUS: p.OtherUS * f,
		ComputeFactor: p.ComputeFactor, CachedLoadUS: p.CachedLoadUS * f,
	}
}

// Names lists the paper's four sandbox backends, fastest to slowest on
// Morello.
func Names() []string { return []string{"cheri", "rwasm", "process", "kvm"} }

// MorelloProfile returns a backend's Morello cost profile; ok is false
// for a name Names does not list.
func MorelloProfile(name string) (p CostProfile, ok bool) {
	switch name {
	case "cheri":
		return MorelloCheri, true
	case "rwasm":
		return MorelloRWasm, true
	case "process":
		return MorelloProcess, true
	case "kvm":
		return MorelloKVM, true
	}
	return CostProfile{}, false
}
