package lint_test

import (
	"testing"

	"github.com/vcabench/vcabench/internal/lint"
	"github.com/vcabench/vcabench/internal/lint/linttest"
)

func TestStorekeyFlagsAdHocKeyConstruction(t *testing.T) {
	linttest.Run(t, lint.StorekeyAnalyzer, "testdata/storekey/adhoc",
		linttest.Opts{Path: "example.com/vca/internal/serve"})
}

// The canonical helpers in internal/core are the one sanctioned home of
// reserved fragments — and even there, only inside those functions.
// Those helpers, the fingerprints and the campaign salt may not format
// with %v (keyverbs.go); other functions and other types' salt may.
func TestStorekeyAllowsCanonicalHelpers(t *testing.T) {
	linttest.Run(t, lint.StorekeyAnalyzer, "testdata/storekey/core",
		linttest.Opts{Path: "example.com/vca/internal/core"})
}
