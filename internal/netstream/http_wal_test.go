package netstream

// Regression coverage for HTTP streaming out of a WAL-attached hub.
// Frames replayed from the durable log alias the WAL reader's internal
// buffer; the NDJSON writer must not mutate them in place (an append of
// the line terminator once clobbered the next record's length prefix,
// truncating every HTTP replay to a single frame).

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// walBackedServer publishes n tuple frames plus a terminal EOF through
// a WAL-attached hub and returns the server.
func walBackedServer(t *testing.T, n int) *Server {
	t.Helper()
	w, err := OpenWAL(t.TempDir(), WALOptions{FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(serverConfig(t, 1, 8), "", nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	hub := srv.Hub()
	if err := hub.AttachWAL(ChannelDirty, w); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := hub.Publish(ChannelDirty, &Frame{Type: FrameTuple, Tuple: &WireTuple{ID: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.Publish(ChannelDirty, &Frame{Type: FrameEOF}); err != nil {
		t.Fatal(err)
	}
	return srv
}

// streamLines drains one HTTP streaming response into its NDJSON lines.
func streamLines(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestHTTPStreamReplaysWholeWAL: an NDJSON subscriber resuming inside
// the durable log must receive every retained frame through the
// terminal EOF, not just the first.
func TestHTTPStreamReplaysWholeWAL(t *testing.T) {
	const n = 500
	srv := walBackedServer(t, n)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fromSeq, ok := parseFromSeq(w, r); ok {
			srv.streamHTTP(w, r, r.URL.Query().Get("channel"), fromSeq, nil)
		}
	}))
	defer ts.Close()

	lines := streamLines(t, ts.URL+"/stream?channel=dirty&from_seq=2")
	// hello + tuples 2..n + eof
	if want := 1 + (n - 1) + 1; len(lines) != want {
		t.Fatalf("got %d NDJSON lines, want %d (replay truncated?)", len(lines), want)
	}
	if !strings.Contains(lines[0], `"hello"`) {
		t.Errorf("first line is not the hello: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"seq":2`) {
		t.Errorf("replay does not start at from_seq: %s", lines[1])
	}
	if last := lines[len(lines)-1]; !strings.Contains(last, `"eof"`) {
		t.Errorf("replay does not end with the terminal frame: %s", last)
	}
}
