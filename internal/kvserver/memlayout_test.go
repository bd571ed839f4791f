package kvserver

import (
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// layoutConfigs is one server config per memory layout, each with capacity
// far above the small working sets the tests here use.
func layoutConfigs(mem int64) []Config {
	return []Config{
		{MemoryBytes: mem, Policy: "camp", Mode: ModeByte, DisableIQ: true},
		{MemoryBytes: mem, Mode: ModeSlab, SlabSize: 1 << 16, DisableIQ: true},
		{MemoryBytes: mem, Policy: "camp", Mode: ModeBuddy, DisableIQ: true},
		{MemoryBytes: mem, Policy: "camp", Mode: ModeArena, DisableIQ: true},
	}
}

// TestItemSize pins the per-item header: every resident key pays it, so it
// must stay in Go's 80-byte malloc class.
func TestItemSize(t *testing.T) {
	if got := unsafe.Sizeof(item{}); got > 72 {
		t.Fatalf("item is %d bytes, want <= 72", got)
	}
}

// TestExpiryFrom pins the exptime mapping at the function level, including
// the boundary memcached draws at 30 days.
func TestExpiryFrom(t *testing.T) {
	const now = int64(1_700_000_000) * 1e9
	for _, tc := range []struct {
		exptime, want int64
	}{
		{0, 0},
		{-1, now - 1},
		{60, now + 60e9},
		{maxRelativeExptime, now + maxRelativeExptime*1e9},
		{maxRelativeExptime + 1, (maxRelativeExptime + 1) * 1e9},
		{1_700_000_000 - 3600, (1_700_000_000 - 3600) * 1e9},
		{1 << 40, 1<<63 - 1},
		{1<<63 - 1, 1<<63 - 1},
	} {
		if got := expiryFrom(tc.exptime, now); got != tc.want {
			t.Errorf("expiryFrom(%d) = %d, want %d", tc.exptime, got, tc.want)
		}
	}
}

// TestLayoutsReplyIdentically replays one scripted, pipelined command stream
// against every layout and requires byte-identical reply streams: with
// capacity far above the working set, the memory layout must be invisible
// on the wire.
func TestLayoutsReplyIdentically(t *testing.T) {
	now := time.Now().Unix()
	var b strings.Builder
	cmd := func(format string, args ...any) { fmt.Fprintf(&b, format+"\r\n", args...) }
	cmd("set a 5 0 3")
	cmd("abc")
	cmd("get a")
	cmd("add a 0 0 1")
	cmd("x")
	cmd("add b 1 0 2")
	cmd("bb")
	cmd("replace c 0 0 1")
	cmd("c")
	cmd("replace b 2 0 3")
	cmd("BBB")
	cmd("append a 0 0 3")
	cmd("def")
	cmd("prepend a 0 0 3")
	cmd("xyz")
	cmd("append missing 0 0 1")
	cmd("m")
	cmd("get a b c")
	cmd("set n 0 0 2")
	cmd("10")
	cmd("incr n 5")
	cmd("decr n 100")
	cmd("set max 0 0 20")
	cmd("18446744073709551615")
	cmd("incr max 1")
	cmd("incr a 1")
	cmd("incr missing 1")
	cmd("touch a 100")
	cmd("touch missing 100")
	cmd("delete b")
	cmd("delete b")
	cmd("set neg 0 -1 1")
	cmd("x")
	cmd("set past 0 %d 1", now-3600)
	cmd("x")
	cmd("set future 0 %d 1", now+3600)
	cmd("x")
	cmd("set far 0 1099511627776 1")
	cmd("x")
	cmd("set kept 0 0 1")
	cmd("k")
	cmd("touch kept -1")
	cmd("set q 3 0 1 noreply")
	cmd("q")
	cmd("get q")
	cmd("delete q noreply")
	cmd("incr n 7 noreply")
	cmd("set huge 0 0 1025")
	cmd("%s", strings.Repeat("h", 1025))
	cmd("get a b n max neg past future far kept q huge")
	cmd("quit")
	script := b.String()

	var want string
	for i, cfg := range layoutConfigs(4 << 20) {
		cfg.MaxValueBytes = 1024
		s := startServer(t, cfg)
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(conn, script); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		got, err := io.ReadAll(conn)
		conn.Close()
		if err != nil {
			t.Fatalf("%s: %v", cfg.Mode, err)
		}
		if i == 0 {
			want = string(got)
			for _, line := range []string{
				"VALUE a 5 9\r\nxyzabcdef\r\n",
				"VALUE b 2 3\r\nBBB\r\n",
				"\r\n15\r\n0\r\nSTORED\r\n0\r\nCLIENT_ERROR cannot increment",
				"VALUE n 0 1\r\n7\r\n",
				"VALUE future 0 1\r\n",
				"VALUE far 0 1\r\n",
				"SERVER_ERROR object too large",
			} {
				if !strings.Contains(want, line) {
					t.Fatalf("byte reply stream lacks %q:\n%s", line, want)
				}
			}
			// Expired keys never hit; q hits once, before its delete.
			for key, hits := range map[string]int{"neg": 0, "past": 0, "kept": 0, "q": 1} {
				if n := strings.Count(want, "VALUE "+key+" "); n != hits {
					t.Fatalf("byte reply stream serves %q %d times, want %d:\n%s", key, n, hits, want)
				}
			}
			continue
		}
		if string(got) != want {
			t.Fatalf("%s replies differ from byte:\n got %q\nwant %q", cfg.Mode, got, want)
		}
	}
}

// TestSlabLayoutAccounting drives the slab layout through both of its
// eviction paths — class-LRU victims and random slab reassignment — and
// checks that the policy view the store now reads (used bytes, item count,
// evictions) matches the allocator's own chunk accounting.
func TestSlabLayoutAccounting(t *testing.T) {
	s := startServer(t, Config{MemoryBytes: 4 << 14, Mode: ModeSlab, SlabSize: 1 << 14, ItemOverhead: 1})
	c := dial(t, s)
	check := func(when string) {
		t.Helper()
		st := s.shards[0].store
		s.shards[0].mu.Lock()
		defer s.shards[0].mu.Unlock()
		l := st.layout.(*slabLayout)
		var chunks int64
		var used int
		for _, cs := range l.a.Stats() {
			chunks += int64(cs.UsedChunks) * cs.ChunkSize
			used += cs.UsedChunks
		}
		if st.usedAll() != chunks || st.policy.Used() != chunks {
			t.Fatalf("%s: used %d (policy %d), allocator holds %d chunk bytes", when, st.usedAll(), st.policy.Used(), chunks)
		}
		if len(st.items) != used || st.policy.Len() != used {
			t.Fatalf("%s: %d items, policy %d, allocator %d chunks", when, len(st.items), st.policy.Len(), used)
		}
	}
	for i := 0; i < 700; i++ {
		if err := c.Set(fmt.Sprintf("small%d", i), make([]byte, 80), 0, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	check("class-LRU eviction")
	before := s.shards[0].store.evictions()
	if err := c.Set("large", make([]byte, 8000), 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	check("random slab reassignment")
	if s.shards[0].store.evictions() <= before {
		t.Fatal("random slab reassignment evicted nothing")
	}
	if _, ok, _ := c.Get("large"); !ok {
		t.Fatal("large item should be resident")
	}
}
