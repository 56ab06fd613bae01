// Command revtr-client talks to a running revtr-server.
//
//	revtr-client -server http://localhost:8080 adduser -admin-key admin -name alice
//	revtr-client -server ... -key KEY addsource -addr 16.0.128.1
//	revtr-client -server ... -key KEY measure -src 16.0.128.1 -dst 16.12.128.1
//	revtr-client -server ... -key KEY batch -pairs pairs.txt
//	revtr-client -server ... -key KEY tail -replay 16
//	revtr-client -server ... get -id 0
//	revtr-client -server ... sources
//	revtr-client -server ... stats
//	revtr-client -server ... revoke -admin-key admin -target KEY
//
// The batch pairs file holds one "src dst" pair per line (whitespace or
// comma separated; blank lines and #-comments ignored). batch submits
// the whole file as one asynchronous job, follows its NDJSON event
// stream (hop-by-hop reveals as the engine stitches each reverse path;
// -follow=false or a server without streaming falls back to jittered
// polling), prints a per-job table, and exits non-zero if any job
// failed or was shed. tail follows the server-wide firehose of
// completed measurements — every measurement with an admin key, your
// own otherwise.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"
)

func main() {
	server := flag.String("server", "http://localhost:8080", "server base URL")
	key := flag.String("key", "", "API key (X-API-Key)")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: revtr-client [flags] adduser|addsource|measure|batch|tail|get|sources|stats|revoke [subflags]")
		os.Exit(2)
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	c := &client{base: strings.TrimRight(*server, "/"), key: *key}

	var err error
	switch cmd {
	case "adduser":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		adminKey := fs.String("admin-key", "admin", "admin key")
		name := fs.String("name", "user", "user name")
		parallel := fs.Int("parallel", 4, "max parallel measurements")
		perDay := fs.Int("per-day", 1000, "max measurements per day")
		_ = fs.Parse(args)
		err = c.do("POST", "/api/v1/users",
			map[string]string{"X-Admin-Key": *adminKey},
			map[string]any{"name": *name, "maxParallel": *parallel, "maxPerDay": *perDay})
	case "addsource":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		addr := fs.String("addr", "", "source address to register")
		vp := fs.Bool("vp", false, "also serve as a record route vantage point")
		_ = fs.Parse(args)
		err = c.do("POST", "/api/v1/sources", nil,
			map[string]any{"addr": *addr, "serveAsVP": *vp})
	case "measure":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		src := fs.String("src", "", "registered source address")
		dst := fs.String("dst", "", "comma-separated destination addresses")
		_ = fs.Parse(args)
		err = c.do("POST", "/api/v1/revtr", nil,
			map[string]any{"src": *src, "dsts": strings.Split(*dst, ",")})
	case "batch":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		pairsPath := fs.String("pairs", "", "file of 'src dst' pairs, one per line ('-' = stdin)")
		follow := fs.Bool("follow", true, "stream live progress events instead of polling (falls back to polling if the server has no streaming)")
		poll := fs.Duration("poll", 250*time.Millisecond, "initial poll interval on the polling fallback (doubles up to 16x, jittered)")
		timeout := fs.Duration("timeout", 10*time.Minute, "give up waiting after this long")
		_ = fs.Parse(args)
		err = c.batch(*pairsPath, *follow, *poll, *timeout)
	case "tail":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		adminKey := fs.String("admin-key", "", "admin key (sees every user's measurements)")
		user := fs.String("user", "", "filter by user name (admin only; user keys are auto-scoped)")
		src := fs.String("src", "", "filter by source address")
		dst := fs.String("dst", "", "filter by destination address")
		replay := fs.Int("replay", 0, "serve this many recent archived measurements before going live")
		_ = fs.Parse(args)
		err = c.tail(*adminKey, *user, *src, *dst, *replay)
	case "revoke":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		adminKey := fs.String("admin-key", "admin", "admin key")
		target := fs.String("target", "", "API key to revoke")
		_ = fs.Parse(args)
		err = c.do("DELETE", "/api/v1/users/"+*target,
			map[string]string{"X-Admin-Key": *adminKey}, nil)
	case "get":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		id := fs.Int("id", 0, "measurement id")
		_ = fs.Parse(args)
		err = c.do("GET", fmt.Sprintf("/api/v1/revtr/%d", *id), nil, nil)
	case "sources":
		err = c.do("GET", "/api/v1/sources", nil, nil)
	case "stats":
		err = c.do("GET", "/api/v1/stats", nil, nil)
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", cmd)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

type client struct {
	base, key string
}

// batchStatus mirrors the server's batch snapshot JSON.
type batchStatus struct {
	ID     string         `json:"batchId"`
	Jobs   []batchJob     `json:"jobs"`
	Counts map[string]int `json:"counts"`
	Done   bool           `json:"done"`
}

type batchJob struct {
	Index     int    `json:"index"`
	Src       string `json:"src"`
	Dst       string `json:"dst"`
	State     string `json:"state"`
	Coalesced bool   `json:"coalesced"`
	Error     string `json:"error"`
}

// readPairs parses a pairs file: one "src dst" per line, whitespace or
// comma separated, blank lines and #-comments ignored.
func readPairs(path string) ([]map[string]string, error) {
	var raw []byte
	var err error
	if path == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	var pairs []map[string]string
	for i, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
		if len(fields) != 2 {
			return nil, fmt.Errorf("line %d: want 'src dst', got %q", i+1, line)
		}
		pairs = append(pairs, map[string]string{"src": fields[0], "dst": fields[1]})
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("no pairs in %s", path)
	}
	return pairs, nil
}

// streamEvent mirrors the server's NDJSON event wire format.
type streamEvent struct {
	ID      uint64          `json:"id"`
	Kind    string          `json:"kind"`
	Seq     uint64          `json:"seq"`
	VirtUS  int64           `json:"virtualUs"`
	Batch   string          `json:"batch"`
	Job     int             `json:"job"`
	User    string          `json:"user"`
	Src     string          `json:"src"`
	Dst     string          `json:"dst"`
	Hop     string          `json:"hop"`
	Tech    string          `json:"technique"`
	Spliced bool            `json:"spliced"`
	Count   int             `json:"count"`
	State   string          `json:"state"`
	Status  string          `json:"status"`
	Reason  string          `json:"reason"`
	Gap     uint64          `json:"gap"`
	Err     string          `json:"error"`
	Result  json.RawMessage `json:"result"`
}

// render prints one progress event as a human line on stderr.
func (ev *streamEvent) render(w io.Writer) {
	switch ev.Kind {
	case "heartbeat":
	case "hop":
		mark := ""
		if ev.Spliced {
			mark = " [spliced]"
		}
		fmt.Fprintf(w, "  job %-4d hop %-15s %s%s\n", ev.Job, ev.Hop, ev.Tech, mark)
	case "spliced":
		fmt.Fprintf(w, "  job %-4d splice: adopting %d memoized hops\n", ev.Job, ev.Count)
	case "fallback":
		fmt.Fprintf(w, "  job %-4d falling back to %s\n", ev.Job, ev.Tech)
	case "vp-failover":
		fmt.Fprintf(w, "  job %-4d vantage point %s dead, failing over\n", ev.Job, ev.Hop)
	case "state":
		line := fmt.Sprintf("  job %-4d %s > %s  %s", ev.Job, ev.Src, ev.Dst, ev.State)
		if ev.Err != "" {
			line += "  " + ev.Err
		}
		fmt.Fprintln(w, line)
	case "gap":
		fmt.Fprintf(w, "  (stream gap: %d events dropped)\n", ev.Gap)
	case "started", "done", "aborted", "failed", "cancelled":
		line := fmt.Sprintf("  job %-4d %s > %s  measurement %s", ev.Job, ev.Src, ev.Dst, ev.Kind)
		if ev.Reason != "" { // aborted and failed say why
			line += ": " + ev.Reason
		}
		fmt.Fprintln(w, line)
	case "measurement":
		fmt.Fprintf(w, "measurement %s > %s  %s  (user %s)\n", ev.Src, ev.Dst, ev.Status, ev.User)
	case "end":
		fmt.Fprintf(w, "stream ended: %s\n", ev.Reason)
	}
}

// stream GETs an NDJSON endpoint and renders each event until the
// stream ends ("end" event or EOF). extraHeaders augment the API key.
func (c *client) stream(path string, extraHeaders map[string]string) error {
	req, err := http.NewRequest("GET", c.base+path, nil)
	if err != nil {
		return err
	}
	if c.key != "" {
		req.Header.Set("X-API-Key", c.key)
	}
	for k, v := range extraHeaders {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		raw, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev streamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("bad event %q: %v", line, err)
		}
		ev.render(os.Stderr)
		if ev.Kind == "end" {
			return nil
		}
	}
	return sc.Err()
}

// tail follows the server-wide firehose of completed measurements.
func (c *client) tail(adminKey, user, src, dst string, replay int) error {
	q := url.Values{}
	for _, kv := range [][2]string{{"user", user}, {"src", src}, {"dst", dst}} {
		if kv[1] != "" {
			q.Set(kv[0], kv[1])
		}
	}
	if replay > 0 {
		q.Set("replay", strconv.Itoa(replay))
	}
	path := "/api/v1/firehose"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var hdr map[string]string
	if adminKey != "" {
		hdr = map[string]string{"X-Admin-Key": adminKey}
	}
	return c.stream(path, hdr)
}

// jitter spreads a poll interval uniformly over [d/2, 3d/2) so many
// clients polling one server don't synchronize into a thundering herd.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}

// batch submits the pairs file as one asynchronous batch, follows its
// event stream (or polls with jittered backoff as fallback) until
// every job is terminal, prints a per-job table, and returns an error
// (non-zero exit) if any job failed or was shed.
func (c *client) batch(pairsPath string, follow bool, poll, timeout time.Duration) error {
	if pairsPath == "" {
		return fmt.Errorf("batch: -pairs is required")
	}
	pairs, err := readPairs(pairsPath)
	if err != nil {
		return err
	}
	var st batchStatus
	if err := c.json("POST", "/api/v1/batch", map[string]any{"pairs": pairs}, &st); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "batch %s: %d jobs submitted %v\n", st.ID, len(st.Jobs), st.Counts)

	if follow && !st.Done {
		if err := c.stream("/api/v1/batch/"+st.ID+"/events", nil); err != nil {
			fmt.Fprintf(os.Stderr, "streaming unavailable (%v), falling back to polling\n", err)
		}
		// Fetch the final snapshot either way: the stream renders
		// progress; the table below needs the authoritative states.
		var next batchStatus
		if err := c.json("GET", "/api/v1/batch/"+st.ID, nil, &next); err != nil {
			return err
		}
		st = next
	}

	deadline := time.Now().Add(timeout) //revtr:wallclock client-side poll timeout, real time by definition
	wait := poll
	for !st.Done {
		if time.Now().After(deadline) { //revtr:wallclock client-side poll timeout, real time by definition
			return fmt.Errorf("batch %s still running after %s: %v", st.ID, timeout, st.Counts)
		}
		time.Sleep(jitter(wait))
		if wait < 16*poll {
			wait *= 2 // back off while the batch runs; the server does the waiting
		}
		// Decode into a fresh struct: Unmarshal merges into an existing
		// map, which would leave stale state counts from earlier polls.
		var next batchStatus
		if err := c.json("GET", "/api/v1/batch/"+st.ID, nil, &next); err != nil {
			return err
		}
		st = next
		fmt.Fprintf(os.Stderr, "batch %s: %v\n", st.ID, st.Counts)
	}

	bad := 0
	for _, j := range st.Jobs {
		line := fmt.Sprintf("%4d  %s > %s  %s", j.Index, j.Src, j.Dst, j.State)
		if j.Coalesced {
			line += " (coalesced: zero probes charged)"
		}
		if j.Error != "" {
			line += "  " + j.Error
		}
		fmt.Println(line)
		if j.State == "failed" || j.State == "shed" {
			bad++
		}
	}
	fmt.Fprintf(os.Stderr, "batch %s finished: %v\n", st.ID, st.Counts)
	if bad > 0 {
		return fmt.Errorf("%d of %d jobs did not complete", bad, len(st.Jobs))
	}
	return nil
}

// json sends one request and decodes the JSON response into out.
func (c *client) json(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if c.key != "" {
		req.Header.Set("X-API-Key", c.key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, out)
}

// do sends one request and pretty-prints the JSON response.
func (c *client) do(method, path string, headers map[string]string, body any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if c.key != "" {
		req.Header.Set("X-API-Key", c.key)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var pretty bytes.Buffer
	if json.Indent(&pretty, raw, "", "  ") == nil {
		fmt.Println(pretty.String())
	} else {
		fmt.Println(string(raw))
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("server returned %s", resp.Status)
	}
	return nil
}
