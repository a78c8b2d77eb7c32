package lint

import (
	"strings"
	"testing"
)

// suppressSrc produces one errdrop finding at a known line with the
// given comment placed on the same line as the call.
func lintSnippet(t *testing.T, src string) Result {
	t.Helper()
	pkg, _, err := testLoader().LoadSource("suppress_snippet.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := LintAll(pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const suppressTemplate = `package p

import (
	"green/internal/core"
	"green/internal/model"
)

func f(l *core.Loop, p model.AdaptiveParams) {
	COMMENT_ABOVE
	l.SetAdaptive(p) COMMENT_SAME
}
`

func renderSnippet(above, same string) string {
	s := strings.Replace(suppressTemplate, "COMMENT_ABOVE", above, 1)
	return strings.Replace(s, "COMMENT_SAME", same, 1)
}

func TestSuppressSameLine(t *testing.T) {
	res := lintSnippet(t, renderSnippet("_ = 0", "//greenlint:ignore errdrop reviewed: config is static"))
	if len(res.Diags) != 0 {
		t.Errorf("finding not suppressed: %v", res.Diags)
	}
	if len(res.Suppressed) != 1 {
		t.Fatalf("want 1 suppressed finding, got %d", len(res.Suppressed))
	}
	if got := res.Suppressed[0].SuppressReason; got != "reviewed: config is static" {
		t.Errorf("reason = %q", got)
	}
}

func TestSuppressLineAbove(t *testing.T) {
	res := lintSnippet(t, renderSnippet("//greenlint:ignore errdrop reviewed: config is static", ""))
	if len(res.Diags) != 0 {
		t.Errorf("finding not suppressed: %v", res.Diags)
	}
	if len(res.Suppressed) != 1 {
		t.Errorf("want 1 suppressed finding, got %d", len(res.Suppressed))
	}
}

func TestSuppressWrongCheck(t *testing.T) {
	res := lintSnippet(t, renderSnippet("//greenlint:ignore nondet wrong check name", ""))
	if len(res.Diags) != 1 {
		t.Errorf("directive for another check must not suppress; got %v", res.Diags)
	}
	if len(res.Suppressed) != 0 {
		t.Errorf("unexpectedly suppressed: %v", res.Suppressed)
	}
}

func TestSuppressMissingReasonInert(t *testing.T) {
	res := lintSnippet(t, renderSnippet("//greenlint:ignore errdrop", ""))
	if len(res.Diags) != 1 {
		t.Errorf("reasonless directive must be inert; got %v", res.Diags)
	}
}

func TestSuppressTooFarAway(t *testing.T) {
	src := `package p

import (
	"green/internal/core"
	"green/internal/model"
)

//greenlint:ignore errdrop two lines above the call does not count

func f(l *core.Loop, p model.AdaptiveParams) {
	l.SetAdaptive(p)
}
`
	res := lintSnippet(t, src)
	if len(res.Diags) != 1 {
		t.Errorf("distant directive must not suppress; got %v", res.Diags)
	}
}

func TestSuppressAppliesToAllAnalyzers(t *testing.T) {
	// Every analyzer must honor the directive; exercise each fixture's
	// suppressed case through the full suite and require that no active
	// finding lands on a line carrying its own //greenlint:ignore.
	for _, check := range []string{"finishpath", "handleescape", "errdrop", "nondet"} {
		pkg, err := testLoader().Load("testdata/src/" + check)
		if err != nil {
			t.Fatal(err)
		}
		res, err := LintAll(pkg, []string{check})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Suppressed) == 0 {
			t.Errorf("%s: fixture has no suppressed finding", check)
		}
		for _, d := range res.Suppressed {
			if d.SuppressReason == "" {
				t.Errorf("%s: suppressed finding without reason: %s", check, d)
			}
		}
	}
}
