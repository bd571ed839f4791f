package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"camp/internal/kvclient"
	"camp/perfbench/work"
)

// conn is one client connection's closed loop and everything it measured.
// Only its own goroutine touches it while a phase runs, except ops.
type conn struct {
	id  int
	cli *kvclient.Client
	st  *work.Stream
	// ver is the last acknowledged version of each key; nil for bg-evict,
	// whose values never change (version 1).
	ver []uint64
	pos int   // next position in a per-connection stream
	req int64 // next request id

	timed  bool         // record latencies and cost-miss tallies
	ops    atomic.Int64 // completed key operations, read by the window sampler
	getLat []int64      // ns per get command (per multiget on hot-read)
	setLat []int64      // ns per replied set
	cm     work.CostMiss
	// setBytes counts user bytes the connection wrote in timed phases.
	setBytes int64

	failed int64
	errs   []string // the first few failures, for the report

	spans *spanLog // nil when untraced

	// Callback state: hits seen by the current get, and the readback's
	// per-key hit marks.
	hits    int
	hitMark []bool
	hitSize int64
	buf     []byte // outgoing value
	scratch []byte // expected value
	batch   []string
	onHit   func(key, value []byte, flags uint32)
}

func newConn(id int, cli *kvclient.Client, st *work.Stream, versioned bool) *conn {
	c := &conn{id: id, cli: cli, st: st}
	if versioned {
		c.ver = make([]uint64, len(st.Space.Keys))
	}
	c.onHit = c.hit
	return c
}

// fail counts one failed operation and keeps its message.
func (c *conn) fail(err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf("conn %d: %v", c.id, err))
	}
}

// callErr sorts a kvclient error: a SERVER_ERROR reply is one failed
// operation and the loop goes on; anything else breaks the connection.
func (c *conn) callErr(err error) error {
	c.fail(err)
	if errors.Is(err, kvclient.ErrServer) {
		return nil
	}
	return err
}

func (c *conn) version(k int) uint64 {
	if c.ver == nil {
		return 1
	}
	return c.ver[k]
}

// hit checks one VALUE reply byte for byte against the key's expected
// version.
func (c *conn) hit(key, value []byte, _ uint32) {
	sp := &c.st.Space
	k, ok := work.KeyIndex(key, len(sp.Prefix))
	if !ok || k >= len(sp.Keys) || string(key) != sp.Keys[k] {
		c.fail(fmt.Errorf("reply for a key never requested: %q", key))
		return
	}
	c.hits++
	if c.hitMark != nil {
		c.hitMark[k] = true
		c.hitSize += int64(len(key) + len(value))
	}
	var err error
	c.scratch, err = work.Check(c.scratch, sp.Keys[k], c.version(k), int(sp.Sizes[k]), value)
	if err != nil {
		c.fail(err)
	}
}

func (c *conn) begin(name uint8, parent int32) int32 {
	if c.spans == nil {
		return -1
	}
	return c.spans.begin(name, parent, c.req)
}

func (c *conn) end(i int32) {
	if c.spans != nil {
		c.spans.end(i)
	}
}

// get times one multiget of keys and returns how many hits it had.
func (c *conn) get(parent int32, keys ...string) (int, error) {
	c.hits = 0
	sp := c.begin(spanGet, parent)
	t0 := time.Now()
	err := c.cli.MultiGetFunc(c.onHit, keys...)
	lat := time.Since(t0)
	c.end(sp)
	if err != nil {
		return c.hits, c.callErr(err)
	}
	if c.timed {
		c.getLat = append(c.getLat, int64(lat))
	}
	return c.hits, nil
}

// set times one replied set of key at version and reports whether the
// server stored it.
func (c *conn) set(parent int32, k int, version uint64) (bool, error) {
	sp := &c.st.Space
	c.buf = work.Fill(c.buf, sp.Keys[k], version, int(sp.Sizes[k]))
	s := c.begin(spanSet, parent)
	t0 := time.Now()
	err := c.cli.Set(sp.Keys[k], c.buf, 0, 0, sp.Costs[k])
	lat := time.Since(t0)
	c.end(s)
	if err != nil {
		return false, c.callErr(err)
	}
	if c.timed {
		c.setLat = append(c.setLat, int64(lat))
		c.setBytes += sp.UserBytes(k)
	}
	return true, nil
}

// driver runs one workload's connections.
type driver struct {
	name  string
	in    *work.Input
	conns []*conn
	// bg-evict's connections share one stream, read in order.
	cursor atomic.Int64
	seen   []atomic.Bool // bg-evict keys referenced so far
	stop   atomic.Bool
}

// step runs one closed-loop request of the workload on c.
func (d *driver) step(c *conn) error {
	root := c.begin(spanRequest, -1)
	var err error
	switch d.name {
	case "bg-evict":
		err = d.stepBG(c, root)
	case "hot-read":
		err = d.stepHot(c, root)
	default:
		err = d.stepJournal(c, root)
	}
	c.end(root)
	c.req++
	return err
}

// stepBG is the paper's look-aside loop: get the key; on a miss, set it
// with its cost.
func (d *driver) stepBG(c *conn, root int32) error {
	i := d.cursor.Add(1) - 1
	k := int(c.st.Keys[i%int64(len(c.st.Keys))])
	warm := d.seen[k].Swap(true)
	hits, err := c.get(root, c.st.Space.Keys[k])
	if err != nil {
		return err
	}
	ops := int64(1)
	if hits == 0 {
		if _, err := c.set(root, k, 1); err != nil {
			return err
		}
		ops++
	}
	if c.timed {
		c.cm.Add(warm, hits > 0, c.st.Space.Costs[k])
	}
	c.ops.Add(ops)
	return nil
}

// stepHot is one pipelined batch: noreply overwrites, then a multiget that
// carries them to the server and must hit on every key.
func (d *driver) stepHot(c *conn, root int32) error {
	const n = work.HotSets + work.HotGets
	if c.pos+n > len(c.st.Keys) {
		c.pos = 0
	}
	keys := c.st.Keys[c.pos : c.pos+n]
	c.pos += n
	sp := &c.st.Space
	for _, k := range keys[:work.HotSets] {
		c.ver[k]++
		c.buf = work.Fill(c.buf, sp.Keys[k], c.ver[k], int(sp.Sizes[k]))
		s := c.begin(spanSetNoreply, root)
		err := c.cli.SetNoreply(sp.Keys[k], c.buf, 0, 0, sp.Costs[k])
		c.end(s)
		if err != nil {
			return c.callErr(err)
		}
		if c.timed {
			c.setBytes += sp.UserBytes(int(k))
		}
	}
	c.batch = c.batch[:0]
	for _, k := range keys[work.HotSets:] {
		c.batch = append(c.batch, sp.Keys[k])
	}
	hits, err := c.get(root, c.batch...)
	if err != nil {
		return err
	}
	for ; hits < work.HotGets; hits++ {
		c.fail(errors.New("hot-read miss on a preloaded key"))
	}
	c.ops.Add(n)
	return nil
}

// stepJournal is one write-journal request: a replied overwrite, or a get
// that must return the last acknowledged version.
func (d *driver) stepJournal(c *conn, root int32) error {
	i := c.pos
	c.pos = (c.pos + 1) % len(c.st.Keys)
	k := int(c.st.Keys[i])
	if c.st.Gets[i] {
		hits, err := c.get(root, c.st.Space.Keys[k])
		if err != nil {
			return err
		}
		if hits == 0 {
			c.fail(fmt.Errorf("write-journal miss on resident key %s", c.st.Space.Keys[k]))
		}
	} else {
		ok, err := c.set(root, k, c.ver[k]+1)
		if err != nil {
			return err
		}
		if ok {
			c.ver[k]++
		}
	}
	c.ops.Add(1)
	return nil
}

// preload stores every key of c's keyspace at version 1 with pipelined
// noreply sets, then waits for a reply so the server has applied them all.
func (c *conn) preload() error {
	sp := &c.st.Space
	for k := range sp.Keys {
		c.ver[k] = 1
		c.buf = work.Fill(c.buf, sp.Keys[k], 1, int(sp.Sizes[k]))
		if err := c.cli.SetNoreply(sp.Keys[k], c.buf, 0, 0, sp.Costs[k]); err != nil {
			return err
		}
	}
	if err := c.cli.Flush(); err != nil {
		return err
	}
	_, err := c.cli.Version()
	return err
}

// readback reads every key of c's keyspace and checks each hit. With
// mustHit, an absent key is a lost write. It returns the live user bytes
// found and how many keys it checked.
func (c *conn) readback(mustHit bool) (live, checked int64, err error) {
	sp := &c.st.Space
	c.hitMark = make([]bool, len(sp.Keys))
	c.hitSize = 0
	defer func() { c.hitMark = nil }()
	const chunk = 64
	for lo := 0; lo < len(sp.Keys); lo += chunk {
		hi := min(lo+chunk, len(sp.Keys))
		if _, err := c.get(-1, sp.Keys[lo:hi]...); err != nil {
			return 0, 0, err
		}
	}
	if mustHit {
		for k, hit := range c.hitMark {
			if !hit {
				c.fail(fmt.Errorf("lost write: key %s version %d absent", sp.Keys[k], c.version(k)))
			}
		}
	}
	return c.hitSize, int64(len(sp.Keys)), nil
}

// phase is what one timed phase measured.
type phase struct {
	elapsed time.Duration
	ops     int64
	windows []float64 // ops/s in each sampling window
	fatal   []error
}

// rate is the phase's completed operations per second.
func rate(p phase) float64 { return float64(p.ops) / p.elapsed.Seconds() }

// window is how often the timed phase samples the operation count. The
// windows are a diagnostic of host stalls; ops_per_s is the whole phase's
// rate.
const window = 10 * time.Millisecond

// run drives every connection's closed loop for dur.
func (d *driver) run(dur time.Duration) phase {
	var p phase
	total := func() int64 {
		var n int64
		for _, c := range d.conns {
			n += c.ops.Load()
		}
		return n
	}
	d.stop.Store(false)
	start, startOps := time.Now(), total()
	for _, c := range d.conns {
		c.getLat, c.setLat = c.getLat[:0], c.setLat[:0]
	}
	errs := make([]error, len(d.conns))
	var wg sync.WaitGroup
	for i, c := range d.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !d.stop.Load() {
				if err := d.step(c); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	tick := time.NewTicker(window)
	lastT, lastOps := start, startOps
	for range tick.C {
		// The sampler may run late on the driver's one P, so each window
		// ends when the count is read, not when the tick was due.
		t, n := time.Now(), total()
		p.windows = append(p.windows, float64(n-lastOps)/t.Sub(lastT).Seconds())
		lastT, lastOps = t, n
		if t.Sub(start) >= dur {
			break
		}
	}
	tick.Stop()
	d.stop.Store(true)
	wg.Wait()
	p.elapsed = time.Since(start)
	p.ops = total() - startOps
	for _, err := range errs {
		if err != nil {
			p.fatal = append(p.fatal, err)
		}
	}
	return p
}
