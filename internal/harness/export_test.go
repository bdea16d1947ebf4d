package harness

// Test-only hooks for the external harness_test package, which can import
// estat (estat imports harness).
var (
	MetricsSpec  = metricsSpec
	UpdateGolden = updateGolden
)
