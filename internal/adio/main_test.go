package adio

import (
	"os"
	"testing"

	"repro/internal/bufpool"
)

// TestMain runs the package's tests with every cluster's byte pool
// poisoning the buffers handed back to it, so a payload used after its
// release panics or fails a byte comparison instead of passing silently.
func TestMain(m *testing.M) {
	bufpool.SetPoison(true)
	os.Exit(m.Run())
}
