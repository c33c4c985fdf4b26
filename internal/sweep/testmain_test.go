package sweep

import (
	"testing"

	"ballista/internal/leak"
)

// TestMain guards the pool's goroutine hygiene: a run that fails, is
// cancelled or recovers a panic must still wait for every worker.
func TestMain(m *testing.M) { leak.VerifyTestMain(m) }
