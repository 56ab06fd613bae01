package service_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"revtr/internal/service"
)

// pairStream yields a batch-submit body of at least size bytes without
// ever holding it: the opening of the pairs array, then one compact pair
// over and over. read counts what the server pulled from it.
type pairStream struct {
	head string
	left int
	read int
}

const onePair = `{"src":"10.0.0.1","dst":"10.0.1.1"},`

func (s *pairStream) Read(p []byte) (int, error) {
	if s.left <= 0 {
		return 0, io.EOF
	}
	n := 0
	if s.head != "" {
		n = copy(p, s.head)
		s.head = s.head[n:]
	} else {
		for n+len(onePair) <= len(p) && n < s.left {
			n += copy(p[n:], onePair)
		}
		if n == 0 { // a buffer shorter than one pair: hand over a slice of it
			n = copy(p, onePair)
		}
	}
	s.left -= n
	s.read += n
	return n, nil
}

// TestBatchHTTPBodyCap: the batch endpoint reads no more of a body than
// its pair cap can use. A hostile 64 MiB submission is cut off at the
// cap with 413, not buffered and then counted; a body one pair over the
// cap still decodes and gets the 400 that names the limit; an ordinary
// 64-pair batch is accepted as before.
func TestBatchHTTPBodyCap(t *testing.T) {
	reg, bb, u, src := batchRegistry(t, 100)
	close(bb.release)
	api := service.NewAPI(reg)
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)
	hdr := map[string]string{"X-API-Key": u.APIKey}
	mkPairs := func(n int) []map[string]string {
		out := make([]map[string]string, n)
		for i := range out {
			out[i] = map[string]string{"src": src.String(), "dst": fmt.Sprintf("10.0.%d.%d", 1+i/250, 1+i%250)}
		}
		return out
	}

	resp := postJSON(t, ts.URL+"/api/v1/batch", hdr, map[string]any{"pairs": mkPairs(64)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("64-pair batch: status %d, want 202", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/api/v1/batch", hdr, map[string]any{"pairs": mkPairs(10001)})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "batch too large") {
		t.Fatalf("10001-pair batch: status %d body %q, want 400 batch too large", resp.StatusCode, body)
	}

	// The default cap: 10000 pairs at 64 B plus 4 KiB of slack. The limit
	// reader takes one byte past it to tell "at" from "over" (measured:
	// 644 097 read); a buffer of grace keeps the test off that detail.
	const limit, oneBuffer = 10000*64 + 4<<10, 4 << 10
	stream := &pairStream{head: `{"pairs":[`, left: 64 << 20}
	req := httptest.NewRequest("POST", "/api/v1/batch", stream)
	req.Header.Set("X-API-Key", u.APIKey)
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), `"error"`) {
		t.Fatalf("64 MiB batch: status %d body %q, want 413 with an error body", rec.Code, rec.Body)
	}
	if stream.read > limit+oneBuffer {
		t.Fatalf("64 MiB batch: server read %d bytes of it, want at most the %d-byte cap plus one buffer", stream.read, limit)
	}
}

// TestHTTPSmallBodyCap: every other JSON endpoint stops at 64 KiB.
func TestHTTPSmallBodyCap(t *testing.T) {
	reg, bb, u, _ := batchRegistry(t, 100)
	close(bb.release)
	api := service.NewAPI(reg)
	for _, path := range []string{"/api/v1/users", "/api/v1/sources", "/api/v1/revtr", "/api/v1/ndt"} {
		// Valid JSON all the way: only its size can be held against it.
		big := `{"pad":"` + strings.Repeat("x", 64<<10) + `"}`
		req := httptest.NewRequest("POST", path, strings.NewReader(big))
		req.Header.Set("X-API-Key", u.APIKey)
		req.Header.Set("X-Admin-Key", "adm")
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", path, len(big), rec.Code)
		}
	}
}
