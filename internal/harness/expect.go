package harness

// PaperRow holds one Table II row as published.
type PaperRow struct {
	// Logged is the message-logging overhead fraction.
	Logged float64
	// Recovery is the restart-cost fraction.
	Recovery float64
	// EncodeSec is the seconds to encode 1 GB.
	EncodeSec float64
	// PCat is the probability of catastrophic failure.
	PCat float64
}

// PaperTable2 records the paper's Table II verbatim: Naive (32 procs),
// Size-guided (8), Distributed (16), Hierarchical (64-rank L1 clusters with
// 4-process L2 groups). The "1−4"-style entries of the published table are
// read as powers of ten (1e-4, 1e-15, 1e-6).
var PaperTable2 = map[string]PaperRow{
	"naive-32":       {Logged: 0.035, Recovery: 0.031, EncodeSec: 204, PCat: 1e-4},
	"size-guided-8":  {Logged: 0.129, Recovery: 0.007, EncodeSec: 51, PCat: 0.95},
	"distributed-16": {Logged: 1.00, Recovery: 0.25, EncodeSec: 102, PCat: 1e-15},
	"hierarchical":   {Logged: 0.019, Recovery: 0.0625, EncodeSec: 25, PCat: 1e-6},
}
