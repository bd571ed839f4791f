package main

// The layer replays: a traced run replays the workload's generated inputs
// in process through the server-path packages the live benchmark cannot
// time from outside: proto's line reader and tokenizer, the core CAMP
// policy, the alloc arena and the persist journal. They run after the live
// phase, once every server is stopped.
//
// Each replay times every call, so the per-call figures include one
// time.Now pair (tens of ns); that cost is the same on both sides of a
// comparison.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"camp/internal/alloc"
	"camp/internal/cache"
	"camp/internal/core"
	"camp/internal/persist"
	"camp/internal/proto"
	"camp/perfbench/work"
)

// Replay lengths: long enough to run well past warm-up and short enough
// that a traced run spends a few seconds here.
const (
	coreRequests   = 400000
	protoCommands  = 100000
	protoMinTime   = 200 * time.Millisecond
	allocRequests  = 200000
	persistOps     = 20000
	persistBatch   = 1        // the server appends one record per mutation
	compactStride  = 32 << 10 // kvserver's per-mutation arena compaction step
	aofNoCompactAt = 1 << 40
)

// replayLayers runs every replay for workload's inputs at seed, with dir as
// scratch space. liveDir, when set, is the data directory a live
// write-journal run left, which the recovery replay reads instead of its own.
func replayLayers(workload string, seed int64, dir, liveDir string) (map[string]metric, error) {
	bg, err := work.Generate("bg-evict", seed)
	if err != nil {
		return nil, err
	}
	wj, err := work.Generate("write-journal", seed)
	if err != nil {
		return nil, err
	}
	in := bg
	switch workload {
	case "bg-evict":
	case "write-journal":
		in = wj
	default:
		if in, err = work.Generate(workload, seed); err != nil {
			return nil, err
		}
	}
	m := map[string]metric{}
	hits := replayCore(m, &bg.Streams[0])
	buf, n := commands(in, hits)
	replayProto(m, buf, n)
	if err := replayAlloc(m, &wj.Streams[0]); err != nil {
		return nil, err
	}
	if err := replayPersist(m, &wj.Streams[0], dir, liveDir); err != nil {
		return nil, err
	}
	return m, nil
}

func ns(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// replayCore runs the bg-evict look-aside loop against core.Camp at the
// server's per-shard capacity and returns each request's hit flag.
func replayCore(m map[string]metric, st *work.Stream) []bool {
	c := core.NewCamp(work.BGShardBytes)
	var evictions int64
	c.SetEvictFunc(func(cache.Entry) { evictions++ })
	sp := &st.Space
	seen := make([]bool, len(sp.Keys))
	hits := make([]bool, coreRequests)
	var cm work.CostMiss
	var getT, setT, evT time.Duration
	var sets, evSets int64
	for i, k := range st.Keys[:coreRequests] {
		key := sp.Keys[k]
		t0 := time.Now()
		hit := c.Get(key)
		getT += time.Since(t0)
		if !hit {
			before := evictions
			size := int64(len(key)) + int64(sp.Sizes[k]) + work.ItemOverhead
			t1 := time.Now()
			c.Set(key, size, sp.Costs[k])
			d := time.Since(t1)
			if evictions > before {
				evT += d
				evSets++
			} else {
				setT += d
				sets++
			}
		}
		hits[i] = hit
		if i >= work.BGWarmup {
			cm.Add(seen[k], hit, sp.Costs[k])
		}
		seen[k] = true
	}
	ops := int64(coreRequests) + sets + evSets
	m["core.get_ns"] = metric{ns(getT, coreRequests), "ns"}
	m["core.set_ns"] = metric{ns(setT, sets), "ns"}
	m["core.set_evicting_ns"] = metric{ns(evT, evSets), "ns"}
	m["core.ns_per_set"] = metric{ns(setT+evT, sets+evSets), "ns"}
	m["core.heap_visits_per_op"] = metric{float64(c.HeapVisits()) / float64(ops), "count"}
	m["core.heap_updates_per_op"] = metric{float64(c.HeapUpdates()) / float64(ops), "count"}
	m["core.queue_count"] = metric{float64(c.QueueCount()), "count"}
	m["core.miss_ratio"] = metric{cm.MissRatio(), "ratio"}
	m["core.cost_miss_ratio"] = metric{cm.CostMissRatio(), "ratio"}
	return hits
}

// commands rebuilds the bytes the driver sends for the workload's first
// protoCommands commands, in kvclient's wire format. bg-evict sets follow
// the gets that missed in the core replay.
func commands(in *work.Input, bgHits []bool) (b []byte, n int) {
	st := &in.Streams[0]
	sp := &st.Space
	var val []byte
	set := func(k int32, noreply bool) {
		b = fmt.Appendf(b, "set %s 0 0 %d %d", sp.Keys[k], sp.Sizes[k], sp.Costs[k])
		if noreply {
			b = append(b, " noreply"...)
		}
		b = append(b, "\r\n"...)
		val = work.Fill(val, sp.Keys[k], 1, int(sp.Sizes[k]))
		b = append(b, val...)
		b = append(b, "\r\n"...)
	}
	get := func(ks []int32) {
		b = append(b, "get"...)
		for _, k := range ks {
			b = append(b, ' ')
			b = append(b, sp.Keys[k]...)
		}
		b = append(b, "\r\n"...)
	}
	for i := 0; n < protoCommands; i++ {
		switch in.Name {
		case "bg-evict":
			k := st.Keys[i]
			get([]int32{k})
			n++
			if !bgHits[i] {
				set(k, false)
				n++
			}
		case "hot-read":
			const size = work.HotSets + work.HotGets
			batch := st.Keys[i%(len(st.Keys)/size)*size:][:size]
			for _, k := range batch[:work.HotSets] {
				set(k, true)
			}
			get(batch[work.HotSets:])
			n += work.HotSets + 1
		default:
			j := i % len(st.Keys)
			if st.Gets[j] {
				get(st.Keys[j : j+1])
			} else {
				set(st.Keys[j], false)
			}
			n++
		}
	}
	return b, n
}

// replayProto parses buf the way the server's connection loop does: read a
// line, tokenize it, and skip a storage command's data block.
func replayProto(m map[string]metric, buf []byte, perPass int) {
	var cmds int64
	var total time.Duration
	tok := make([][]byte, 0, 32)
	for total < protoMinTime {
		br := bufio.NewReaderSize(bytes.NewReader(buf), 16<<10)
		lr := proto.NewLineReader(br)
		t0 := time.Now()
		for {
			line, err := lr.ReadLine()
			if err != nil {
				break
			}
			tok = proto.Tokenize(line, tok[:0])
			if len(tok) >= 5 && string(tok[0]) == "set" {
				n, _ := proto.ParseInt(tok[4])
				br.Discard(int(n) + 2)
			}
			cmds++
		}
		total += time.Since(t0)
	}
	m["proto.parse_ns_per_cmd"] = metric{ns(total, cmds), "ns"}
	m["proto.bytes_per_cmd"] = metric{float64(len(buf)) / float64(perPass), "B"}
}

// replayAlloc loads one write-journal connection's keys into an arena of
// one shard's capacity, then replays its overwrites the way kvserver's
// arena mode does: append the new record, release the old one, and run one
// bounded compaction step while a segment waits for it.
func replayAlloc(m map[string]metric, st *work.Stream) error {
	sp := &st.Space
	a, err := alloc.NewArena(work.JournalShardBytes, 0)
	if err != nil {
		return err
	}
	refs := make([]alloc.Ref, len(sp.Keys))
	index := func(key []byte) int {
		k, _ := work.KeyIndex(key, len(sp.Prefix))
		return k
	}
	alive := func(key []byte, ref alloc.Ref) bool { return refs[index(key)] == ref }
	moved := func(key []byte, ref alloc.Ref) { refs[index(key)] = ref }
	var val []byte
	appendRec := func(k int, version uint64) (alloc.Ref, error) {
		val = work.Fill(val, sp.Keys[k], version, int(sp.Sizes[k]))
		for {
			ref, err := a.Append(sp.Keys[k], val, 0, 0)
			if err == nil || !errors.Is(err, alloc.ErrNoMemory) || !a.CompactForce(alive, moved) {
				return ref, err
			}
		}
	}
	for k := range sp.Keys {
		if refs[k], err = appendRec(k, 1); err != nil {
			return err
		}
	}
	var appendT, stepT time.Duration
	var appends, steps, userBytes int64
	reloc0 := a.Stats().RelocatedBytes
	for i, k := range st.Keys[:allocRequests] {
		if st.Gets[i] {
			continue
		}
		t0 := time.Now()
		ref, err := appendRec(int(k), uint64(i)+2)
		if err != nil {
			return err
		}
		a.Release(refs[k])
		refs[k] = ref
		appendT += time.Since(t0)
		appends++
		userBytes += sp.UserBytes(int(k))
		if a.NeedsCompaction() {
			t1 := time.Now()
			a.CompactStep(compactStride, alive, moved)
			stepT += time.Since(t1)
			steps++
		}
	}
	s := a.Stats()
	m["alloc.append_ns"] = metric{ns(appendT, appends), "ns"}
	m["alloc.compact_step_ns"] = metric{ns(stepT, steps), "ns"}
	m["alloc.ns_per_set"] = metric{ns(appendT+stepT, appends), "ns"}
	m["alloc.relocated_bytes_per_user_byte"] = metric{float64(s.RelocatedBytes-reloc0) / float64(userBytes), "B/B"}
	m["alloc.held_bytes_per_live_byte"] = metric{float64(s.HeldBytes) / float64(s.LiveBytes), "B/B"}
	return nil
}

// replayPersist journals write-journal sets through persist at everysec in
// groups, then times recovery: of the live run's data directory when there
// is one, else of the directory this replay wrote.
func replayPersist(m map[string]metric, st *work.Stream, dir, liveDir string) error {
	sp := &st.Space
	pdir := filepath.Join(dir, "persist")
	if err := os.RemoveAll(pdir); err != nil {
		return err
	}
	mgr, _, err := persist.Open(persist.Options{Dir: pdir, Fsync: persist.FsyncEverySec, AOFLimit: aofNoCompactAt},
		func(persist.Op) error { return nil })
	if err != nil {
		return err
	}
	var t time.Duration
	var n, userBytes int64
	batch := make([]persist.Op, 0, persistBatch)
	flush := func() error {
		t0 := time.Now()
		err := mgr.AppendBatch(batch)
		t += time.Since(t0)
		batch = batch[:0]
		return err
	}
	for i, k := range st.Keys {
		if n == persistOps {
			break
		}
		if st.Gets[i] {
			continue
		}
		v := work.Fill(nil, sp.Keys[k], uint64(i)+2, int(sp.Sizes[k]))
		batch = append(batch, persist.Op{Kind: persist.KindSet, Key: sp.Keys[k], Value: v,
			Size: sp.UserBytes(int(k)) + work.ItemOverhead, Cost: sp.Costs[k]})
		n++
		userBytes += sp.UserBytes(int(k))
		if len(batch) == persistBatch {
			if err := flush(); err != nil {
				mgr.Close()
				return err
			}
		}
	}
	if len(batch) > 0 {
		if err := flush(); err != nil {
			mgr.Close()
			return err
		}
	}
	aof := mgr.Info().AOFSize
	if err := mgr.Close(); err != nil {
		return err
	}
	m["persist.append_batch_ns_per_op"] = metric{ns(t, n), "ns"}
	m["persist.journal_bytes_per_user_byte"] = metric{float64(aof) / float64(userBytes), "B/B"}

	dirs := []string{pdir}
	if liveDir != "" {
		entries, err := os.ReadDir(liveDir)
		if err != nil {
			return err
		}
		dirs = dirs[:0]
		for _, e := range entries {
			if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
				dirs = append(dirs, filepath.Join(liveDir, e.Name()))
			}
		}
		if len(dirs) == 0 {
			return fmt.Errorf("no shard directories in %s", liveDir)
		}
	}
	var ops int64
	t0 := time.Now()
	for _, d := range dirs {
		if _, err := persist.RecoverDir(d, nil, func(persist.Op) error { ops++; return nil }); err != nil {
			return fmt.Errorf("recover %s: %w", d, err)
		}
	}
	m["persist.recover_ops_per_s"] = metric{float64(ops) / time.Since(t0).Seconds(), "1/s"}
	return os.RemoveAll(pdir)
}
