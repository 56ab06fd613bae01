package obs_test

import (
	"testing"

	"revtr/internal/obs"
)

// TestLabelEscapes: quotes and backslashes in a value are escaped, the
// rest of the name is rendered as for a clean value.
func TestLabelEscapes(t *testing.T) {
	if got, want := obs.Label("m_total", "k", `a"b\c`, "j", "plain"), `m_total{k="a\"b\\c",j="plain"}`; got != want {
		t.Fatalf("Label = %s, want %s", got, want)
	}
}

// TestLabelAllocCeiling: rendering a name whose values need no escaping
// costs the returned string and nothing else.
func TestLabelAllocCeiling(t *testing.T) {
	if n := testing.AllocsPerRun(200, func() { obs.Label("service_user_inflight", "user", "alice") }); n > 1 {
		t.Errorf("Label allocates %.1f times for a clean value, want <= 1", n)
	}
}
