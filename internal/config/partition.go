package config

// Explicit classification of every GPU field that appendTimingFields does
// NOT encode. Together with the encoded set, these lists partition the
// configuration exhaustively; two enforcers keep the partition honest:
//
//   - gpowlint's timingpartition pass (internal/analysis) cross-references
//     the lists against the fields internal/sim and internal/core actually
//     read, and against appendTimingFields — an unclassified or
//     misclassified field fails `make lint`;
//   - TestTimingPartitionExhaustive (partition_test.go) perturbs every
//     field and asserts the key changes exactly for the encoded ones — an
//     unclassified new field fails `go test` too.
//
// Adding a field to GPU therefore forces a decision: encode it in
// appendTimingFields (and bump timingKeyVersion), or declare it here.

// powerOnlyFields are read by the power model alone: two configurations
// differing only in these fields produce bit-identical simulations and
// must share a simcache key (that sharing is the simulate-once-
// evaluate-many optimization). Timing-side code reading one of these is a
// cache-corruption bug, and gpowlint rejects it.
var powerOnlyFields = []string{
	"ProcessNM",
	"UncoreClockMHz",
	"MemType",
	"PCIeLanes",
	"Power",
	// MaxThreadsPerCore is not read by the power model either: it exists
	// for Table II presentation and Validate pins it to
	// MaxWarpsPerCore*WarpSize, so it can never vary independently. What
	// matters here is the enforced half: timing-side code must not read it
	// unkeyed.
	"MaxThreadsPerCore",
}

// timingNeutralFields may be read by timing-side code but are deliberately
// excluded from the key: they must not change what is simulated.
// DenseClock switches between two clock loops proven bit-identical (the
// sim package's fast-forward equivalence tests).
var timingNeutralFields = []string{
	"DenseClock",
	// Name is identity metadata: it appears in error text and report
	// headers (internal/sim quotes it when a kernel touches a texture
	// cache the config lacks) but never in simulated behavior, so two
	// configs differing only in name share their timing results — that
	// sharing is what lets hw's silicon-perturbed "truth" config reuse
	// the nominal config's simulation.
	"Name",
}
