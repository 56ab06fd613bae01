package main

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// TestTailEscapesFilters runs tail against a recording server: every
// filter value reaches the firehose exactly as typed, however many
// query metacharacters it holds.
func TestTailEscapesFilters(t *testing.T) {
	var got url.Values
	var admin string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/v1/firehose" {
			http.NotFound(w, r)
			return
		}
		got, admin = r.URL.Query(), r.Header.Get("X-Admin-Key")
		_, _ = w.Write([]byte(`{"kind":"end","reason":"test"}` + "\n"))
	}))
	defer ts.Close()
	c := &client{base: ts.URL}

	for _, user := range []string{"r&d", "a+b", "50%", "team a", "x=y#z"} {
		got = nil
		if err := c.tail("secret", user, "16.0.128.1", "16.2.128.1", 16); err != nil {
			t.Fatalf("user %q: %v", user, err)
		}
		want := url.Values{"user": {user}, "src": {"16.0.128.1"}, "dst": {"16.2.128.1"}, "replay": {"16"}}
		if got.Encode() != want.Encode() {
			t.Errorf("user %q: server saw %v, want %v", user, got, want)
		}
		if admin != "secret" {
			t.Errorf("user %q: admin key %q, want %q", user, admin, "secret")
		}
	}

	// No filters: no query at all.
	if err := c.tail("", "", "", "", 0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || admin != "" {
		t.Errorf("unfiltered tail sent query %v, admin key %q", got, admin)
	}
}
