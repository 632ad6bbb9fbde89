package broker

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tinySegBroker opens a durable broker with a very small segment size
// so a handful of messages forces several rollovers.
func tinySegBroker(t *testing.T, dir string) *Broker {
	t.Helper()
	b, err := NewDurableWith(nil, dir, DurableOptions{MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func segmentCount(t *testing.T, logDir string) int {
	t.Helper()
	entries, err := os.ReadDir(logDir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0
		}
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".seg" {
			n++
		}
	}
	return n
}

// TestSegmentRolloverReplaysIdentically drives a topic across
// MaxSegmentSize several times and verifies the reopened broker
// delivers the exact same messages in the same order.
func TestSegmentRolloverReplaysIdentically(t *testing.T) {
	dir := t.TempDir()
	b := tinySegBroker(t, dir)
	declareDurable(t, b, "ex", "q")
	const n = 60
	for i := 0; i < n; i++ {
		body := []byte(fmt.Sprintf("msg-%03d-%s", i, "padding-to-fill-segments"))
		if err := b.Publish("ex", fmt.Sprintf("k.%d", i), map[string]string{"i": fmt.Sprint(i)}, body); err != nil {
			t.Fatal(err)
		}
	}
	topicDir := filepath.Join(dir, "topics", "q")
	if c := segmentCount(t, topicDir); c < 3 {
		t.Fatalf("expected several segments after %d publishes, got %d", n, c)
	}
	b.Close()

	b2 := tinySegBroker(t, dir)
	defer b2.Close()
	st, err := b2.QueueStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ready != n {
		t.Fatalf("recovered ready = %d, want %d", st.Ready, n)
	}
	c, err := b2.Consume("q", n, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range drain(t, c, n, 5*time.Second) {
		want := fmt.Sprintf("msg-%03d-%s", i, "padding-to-fill-segments")
		if string(d.Body) != want || d.RoutingKey != fmt.Sprintf("k.%d", i) || d.Headers["i"] != fmt.Sprint(i) {
			t.Fatalf("replayed delivery %d = %q key=%q hdr=%q", i, d.Body, d.RoutingKey, d.Headers["i"])
		}
		c.Ack(d.Tag)
	}
}

// TestSegmentTruncationReclaimsSettledPrefix verifies online GC:
// segments that hold only settled enqueues (and their settlements) are
// deleted once the frontier passes them, without waiting for a
// restart compaction.
func TestSegmentTruncationReclaimsSettledPrefix(t *testing.T) {
	dir := t.TempDir()
	b := tinySegBroker(t, dir)
	defer b.Close()
	declareDurable(t, b, "ex", "q")
	const n = 80
	c, err := b.Consume("q", n, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := b.Publish("ex", "k", nil, []byte(fmt.Sprintf("body-%03d-with-some-padding", i))); err != nil {
			t.Fatal(err)
		}
	}
	topicDir := filepath.Join(dir, "topics", "q")
	grown := segmentCount(t, topicDir)
	if grown < 4 {
		t.Fatalf("expected the log to grow to several segments, got %d", grown)
	}
	for _, d := range drain(t, c, n, 5*time.Second) {
		if err := c.Ack(d.Tag); err != nil {
			t.Fatal(err)
		}
	}
	// Everything is settled: only the trailing segments that the
	// frontier cannot pass (the active one, plus at most one holding
	// the final settles) may remain.
	if left := segmentCount(t, topicDir); left > 2 {
		t.Errorf("GC left %d segments (grew to %d), want <= 2", left, grown)
	}

	// The survivors replay to an empty queue.
	b.Close()
	b2 := tinySegBroker(t, dir)
	defer b2.Close()
	if st, _ := b2.QueueStats("q"); st.Ready != 0 {
		t.Errorf("settled messages resurrected after GC: %+v", st)
	}
}

// TestSegmentTruncationHoldsBackUnsettled pins the frontier with one
// old unacked message and checks its segment survives GC while later
// traffic churns, then releases it and sees the prefix reclaimed.
func TestSegmentTruncationHoldsBackUnsettled(t *testing.T) {
	dir := t.TempDir()
	b := tinySegBroker(t, dir)
	defer b.Close()
	declareDurable(t, b, "ex", "q")
	if err := b.Publish("ex", "k", nil, []byte("pin-the-first-segment")); err != nil {
		t.Fatal(err)
	}
	c, err := b.Consume("q", 200, false)
	if err != nil {
		t.Fatal(err)
	}
	pin := drain(t, c, 1, 2*time.Second)[0]

	topicDir := filepath.Join(dir, "topics", "q")
	firstSeg := lastSegment(t, topicDir) // only one segment exists yet
	const n = 80
	for i := 0; i < n; i++ {
		if err := b.Publish("ex", "k", nil, []byte(fmt.Sprintf("churn-%03d-with-some-padding", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range drain(t, c, n, 5*time.Second) {
		if err := c.Ack(d.Tag); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(firstSeg); err != nil {
		t.Fatalf("pinned segment reclaimed while its enqueue is unacked: %v", err)
	}
	if err := c.Ack(pin.Tag); err != nil {
		t.Fatal(err)
	}
	// The ack lands in the active segment; the settled prefix —
	// including the pinned first segment — goes on the next append.
	if err := b.Publish("ex", "k", nil, []byte("nudge")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(firstSeg); !os.IsNotExist(err) {
		t.Errorf("settled prefix segment not reclaimed: %v", err)
	}
	if left := segmentCount(t, topicDir); left > 2 {
		t.Errorf("GC left %d segments after frontier release, want <= 2", left)
	}
}

// TestFollowerLogMirrorsLeader streams a leader journal's records into
// a FollowerLog and promotes the follower directory with NewDurable:
// the recovered broker must hold exactly the leader's unsettled state.
func TestFollowerLogMirrorsLeader(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	b := tinySegBroker(t, leaderDir)
	snap, tap, cancel, err := b.ReplSubscribe(4096)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	declareDurable(t, b, "ex", "q")
	c, err := b.Consume("q", 64, false)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := b.Publish("ex", "k", nil, []byte(fmt.Sprintf("r-%03d-with-some-padding", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Settle the first half; the second half must survive promotion.
	for _, d := range drain(t, c, n/2, 5*time.Second) {
		if err := c.Ack(d.Tag); err != nil {
			t.Fatal(err)
		}
	}
	leaderLSN := b.LastLSN()

	f, err := OpenFollowerLog(followerDir, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Reset(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range snap {
		if err := f.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
drainTap:
	for f.LastLSN() < leaderLSN {
		select {
		case rec, ok := <-tap:
			if !ok {
				t.Fatal("tap overflowed")
			}
			if err := f.Append(rec); err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			break drainTap
		}
	}
	if got := f.LastLSN(); got < leaderLSN {
		t.Fatalf("follower LSN %d < leader %d", got, leaderLSN)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b.Close()

	promoted := tinySegBroker(t, followerDir)
	defer promoted.Close()
	st, err := promoted.QueueStats("q")
	if err != nil {
		t.Fatalf("promoted follower missing queue: %v", err)
	}
	if st.Ready != n/2 {
		t.Fatalf("promoted ready = %d, want %d", st.Ready, n/2)
	}
	pc, err := promoted.Consume("q", 64, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range drain(t, pc, n/2, 5*time.Second) {
		want := fmt.Sprintf("r-%03d-with-some-padding", n/2+i)
		if string(d.Body) != want {
			t.Fatalf("promoted delivery %d = %q, want %q", i, d.Body, want)
		}
		pc.Ack(d.Tag)
	}
	if promoted.LastLSN() < leaderLSN {
		t.Errorf("promoted LSN %d regressed below leader %d", promoted.LastLSN(), leaderLSN)
	}
}

// TestFollowerLogFlushMakesBurstDurable: appended records reach the
// segment files on Flush, so a second reader of the directory sees the
// whole burst while the writer is still open.
func TestFollowerLogFlushMakesBurstDurable(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFollowerLog(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for lsn := uint64(1); lsn <= 20; lsn++ {
		topic := ""
		if lsn%2 == 0 {
			topic = "q"
		}
		if err := f.Append(ReplRecord{LSN: lsn, Topic: topic, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	g, err := OpenFollowerLog(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if got := g.LastLSN(); got != 20 {
		t.Fatalf("reopened log ends at lsn %d; want the flushed burst's 20", got)
	}
}
