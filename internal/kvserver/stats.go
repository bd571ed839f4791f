package kvserver

import "sync/atomic"

// counters are the server-wide operation counts. They are atomics rather
// than a mutex-guarded map so the request path never shares a lock across
// shards: a shard only ever touches its own mutex plus these cache-line
// increments.
type counters struct {
	// cmds counts commands by verb, rendered as the cmd_<verb> lines;
	// verbOther has no counter.
	cmds [verbOther]atomic.Uint64

	getHits, getMisses                                   atomic.Uint64
	setRejected                                          atomic.Uint64
	persistErrors, persistSnapshots                      atomic.Uint64
	replSyncsServed, replFullSyncsServed, replAppliedOps atomic.Uint64

	// Blast-radius accounting: handler panics recovered (that connection
	// closed, the server survived) and connections refused at the -max-conns
	// accept limit.
	connPanics, acceptRejected atomic.Uint64

	// Connection and socket accounting (memcached's standard identity
	// stats). currConns is signed: it decrements on close.
	currConns                           atomic.Int64
	totalConns, bytesRead, bytesWritten atomic.Uint64
}

// lines renders the counter STAT lines in a stable order: the cmd_<verb>
// lines in verbID order, then the rest.
func (c *counters) lines() []statLine {
	lines := make([]statLine, 0, len(c.cmds)+5)
	for v := range c.cmds {
		lines = append(lines, statLine{"cmd_" + verbNames[v], c.cmds[v].Load()})
	}
	return append(lines,
		statLine{"get_hits", c.getHits.Load()},
		statLine{"get_misses", c.getMisses.Load()},
		statLine{"set_rejected", c.setRejected.Load()},
		statLine{"conn_panics", c.connPanics.Load()},
		statLine{"accept_rejected_maxconns", c.acceptRejected.Load()},
	)
}

type statLine struct {
	key string
	val uint64
}
