package main

import (
	"fmt"
	"io"
	"maps"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"camp/internal/kvclient"
)

// serverSnap is the server's public counters and the two processes' CPU
// time at one instant.
type serverSnap struct {
	cpu, self time.Duration
	stats     map[string]string
	lat       map[string]kvclient.LatencyStats
	shards    []kvclient.ShardStats
}

func snapshot(cli *kvclient.Client, pid int) (serverSnap, error) {
	var s serverSnap
	var err error
	if s.cpu, err = procCPU(pid); err != nil {
		return s, err
	}
	s.self = selfCPU()
	if s.stats, err = cli.Stats(); err != nil {
		return s, err
	}
	if s.lat, err = cli.StatsLatency(); err != nil {
		return s, err
	}
	s.shards, err = cli.StatsShards()
	return s, err
}

func (s serverSnap) stat(name string) float64 {
	v, _ := strconv.ParseFloat(s.stats[name], 64)
	return v
}

// shardSum adds one field over the shards.
func (s serverSnap) shardSum(f func(kvclient.ShardStats) float64) float64 {
	var n float64
	for _, sh := range s.shards {
		n += f(sh)
	}
	return n
}

// layerMetrics derives the per-layer metrics of a traced run: server
// counter deltas over the traced half, span self times, and the
// in-process layer replays.
func layerMetrics(stdout io.Writer, rep *report, o options, d *driver, dir, dataDir string, p, untraced phase,
	before, after serverSnap, logs []*spanLog, setBytes int64, genNs float64) error {
	ops := float64(p.ops)
	perOp := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / ops }
	delta := func(f func(kvclient.ShardStats) float64) float64 {
		return after.shardSum(f) - before.shardSum(f)
	}
	handler := func(verb string) (sum time.Duration, n uint64) {
		return after.lat[verb].Sum - before.lat[verb].Sum, after.lat[verb].Count - before.lat[verb].Count
	}
	getSum, getN := handler("get")
	setSum, setN := handler("set")
	var clientTime time.Duration
	for _, c := range d.conns {
		for _, l := range slices.Concat(c.getLat, c.setLat) {
			clientTime += time.Duration(l)
		}
	}
	mean := func(sum time.Duration, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(sum.Nanoseconds()) / 1e3 / float64(n)
	}
	rep.add("kvserver.cpu_us_per_op", perOp(after.cpu-before.cpu), "us", "server utime+stime from /proc")
	rep.add("kvserver.handler_us_mean.get", mean(getSum, getN), "us", fmt.Sprintf("stats latency, %d gets", getN))
	rep.add("kvserver.handler_us_mean.set", mean(setSum, setN), "us", fmt.Sprintf("stats latency, %d sets", setN))
	rep.add("kvserver.handler_share", float64(getSum+setSum)/float64(max(clientTime, 1)), "ratio",
		"server handler time over client-observed get and set time")
	var lockP99 time.Duration
	for _, sh := range after.shards {
		lockP99 = max(lockP99, sh.LockP99)
	}
	rep.add("kvserver.lock_hold_p99_us", float64(lockP99.Microseconds()), "us_log2",
		"log2 bucket bound, max over shards, since server start")
	rep.add("kvserver.lock_holds_per_op", delta(func(s kvclient.ShardStats) float64 { return float64(s.LockHolds) })/ops, "count", "")
	sets := after.stat("cmd_set") - before.stat("cmd_set")
	rep.add("kvserver.evictions_per_set", delta(func(s kvclient.ShardStats) float64 { return float64(s.Evictions) })/max(sets, 1), "count",
		fmt.Sprintf("%.0f sets", sets))
	rep.add("kvserver.rejected_sets", delta(func(s kvclient.ShardStats) float64 { return float64(s.RejectedSets) }), "count", "")
	rep.add("kvserver.arena_relocated_bytes_per_user_byte",
		delta(func(s kvclient.ShardStats) float64 { return float64(s.ArenaRelocatedBytes) })/float64(max(setBytes, 1)), "B/B", "")
	dead := after.shardSum(func(s kvclient.ShardStats) float64 { return float64(s.ArenaDeadBytes) })
	liveA := after.shardSum(func(s kvclient.ShardStats) float64 { return float64(s.ArenaLiveBytes) })
	rep.add("kvserver.arena_dead_ratio", dead/max(dead+liveA, 1), "ratio", "dead over live+dead arena bytes at the end")
	rep.add("kvserver.journal_compactions", delta(func(s kvclient.ShardStats) float64 { return float64(s.Compactions) }), "count", "")

	self := selfTimes(logs)
	clientSpans := self[spanGet] + self[spanSet] + self[spanSetNoreply]
	rep.add("kvclient.cpu_us_per_op", perOp(after.self-before.self), "us", "driver process utime+stime")
	rep.add("kvclient.outside_handler_us_per_op", perOp(clientSpans-getSum-setSum), "us",
		"kvclient span time minus server handler time: client, kernel and wire")
	rep.add("driver.self_us_per_op", perOp(self[spanRequest]), "us", "driver loop time outside kvclient calls")
	tracedRate, untracedRate := rate(p), rate(untraced)
	rep.add("driver.trace_overhead_ratio", 1-tracedRate/untracedRate, "ratio",
		fmt.Sprintf("untraced half %.0f ops/s, traced half %.0f ops/s", untracedRate, tracedRate))
	rep.add("trace.gen_ns_per_req", genNs, "ns", "before timing starts")

	m, err := replayLayers(o.workload, o.seed, filepath.Join(dir, "replay"), dataDir)
	if err != nil {
		return fmt.Errorf("layer replays: %w", err)
	}
	for _, name := range slices.Sorted(maps.Keys(m)) {
		rep.add(name, m[name].Value, m[name].Unit, "in-process replay")
	}

	// Where the server's handler time goes, estimated from the replays:
	// per client op, each layer's replay cost times its calls per op.
	handlerPerOp := perOp(getSum + setSum)
	cmds := (after.stat("cmd_get") - before.stat("cmd_get") + sets) / ops
	gets := float64(getN) / ops
	est := map[string]float64{
		"proto": m["proto.parse_ns_per_cmd"].Value * cmds / 1e3,
		"core":  (m["core.get_ns"].Value*gets*keysPerGet(o.workload) + m["core.ns_per_set"].Value*sets/ops) / 1e3,
	}
	if o.workload == "write-journal" {
		est["alloc"] = m["alloc.ns_per_set"].Value * sets / ops / 1e3
		est["persist"] = m["persist.append_batch_ns_per_op"].Value * sets / ops / 1e3
	}
	fmt.Fprintf(stdout, "# self time per client op, traced half (us): driver %.3f, kvclient+kernel+wire %.3f, kvserver handler %.3f\n",
		perOp(self[spanRequest]), perOp(clientSpans-getSum-setSum), handlerPerOp)
	for _, layer := range []string{"proto", "core", "alloc", "persist"} {
		if v, ok := est[layer]; ok {
			fmt.Fprintf(stdout, "#   %-8s ~%.3f us/op = %.1f%% of handler time (replay estimate)\n", layer, v, 100*v/max(handlerPerOp, 1e-9))
		}
	}
	return nil
}

// keysPerGet is how many keys one get command names.
func keysPerGet(workload string) float64 {
	if workload == "hot-read" {
		return 16
	}
	return 1
}
