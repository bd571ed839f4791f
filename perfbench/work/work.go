// Package work defines the benchmark's workloads: the inputs each one
// generates from its seed, the self-verifying values it writes, and the
// accounting the live driver and the in-process layer replays share.
package work

import (
	"fmt"
	"math/rand"
	"strconv"

	"camp/internal/trace"
)

// Names lists the workloads in the order the benchmark documents them.
var Names = []string{"bg-evict", "hot-read", "write-journal"}

// Conns is the number of client connections every workload drives: the
// host's two CPUs, so the load generator cannot hide the server's cost.
const Conns = 2

// Workload sizes. They are constants, not options: a later change is only
// comparable with its parent when both run the same inputs.
const (
	BGKeys       = 20000   // bg-evict key population (~10 MB unique bytes)
	BGWarmup     = 20000   // bg-evict requests replayed during set-up
	BGRequests   = 1 << 20 // bg-evict stream length; the loop wraps around
	HotKeys      = 100000  // hot-read keys per connection (200,000 in all)
	HotValue     = 100     // hot-read value size
	HotGets      = 16      // keys per hot-read multiget
	HotSets      = 4       // noreply overwrites per hot-read batch
	HotStream    = 1 << 18 // hot-read keys drawn per connection; wraps
	JournalKeys  = 10000   // write-journal keys per connection (20,000 in all)
	JournalGetPc = 10      // share of write-journal requests that are gets, in %
	JournalOps   = 1 << 19 // write-journal requests per connection; wraps
)

// Per-shard capacities the layer replays use; they match the -mem and
// -shards flags below.
const (
	BGShardBytes      = 2 << 20
	JournalShardBytes = 32 << 20
	ItemOverhead      = 56 // kvserver.DefaultItemOverhead, charged per item
)

// Server flags per workload, besides -addr and -data-dir. The AOF limit is
// small enough that each shard's journal compacts several times a run.
var (
	BGFlags      = []string{"-mem", "2MiB", "-shards", "1", "-no-iq", "-mode", "byte"}
	HotFlags     = []string{"-mem", "256MiB", "-shards", "2", "-mode", "byte"}
	JournalFlags = []string{"-mem", "64MiB", "-shards", "2", "-mode", "arena", "-fsync", "everysec", "-aof-limit", "32MiB"}
)

// Flags returns the campsrv flags of the named workload.
func Flags(name string) ([]string, error) {
	switch name {
	case "bg-evict":
		return BGFlags, nil
	case "hot-read":
		return HotFlags, nil
	case "write-journal":
		return JournalFlags, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, Names)
}

// Keyspace is a key population: every key's name, value size and cost.
type Keyspace struct {
	Prefix string
	Keys   []string
	Sizes  []int32
	Costs  []int64
}

// Stream is one generated request sequence over a keyspace.
type Stream struct {
	Space Keyspace
	// Keys holds the key index of each request.
	Keys []int32
	// Gets marks write-journal requests that are gets; nil elsewhere.
	Gets []bool
}

// Input is everything a workload sends, generated from the seed alone.
type Input struct {
	Name string
	// Streams holds one stream per connection; bg-evict has one stream
	// both connections draw from in order.
	Streams []Stream
	// Requests is how many requests generation produced.
	Requests int64
}

// Generate builds the named workload's inputs from seed.
func Generate(name string, seed int64) (*Input, error) {
	in := &Input{Name: name}
	switch name {
	case "bg-evict":
		in.Streams = []Stream{stream(trace.Config{Keys: BGKeys, Seed: seed}, BGRequests, 0)}
	case "hot-read":
		for c := 0; c < Conns; c++ {
			in.Streams = append(in.Streams, stream(trace.Config{
				Keys:   HotKeys,
				Seed:   seed + int64(c)*7919,
				Prefix: connPrefix(c),
				Dist:   trace.NewZipf(HotKeys, 0.99),
				Size:   trace.SizeConstant(HotValue),
			}, HotStream, 0))
		}
	case "write-journal":
		for c := 0; c < Conns; c++ {
			in.Streams = append(in.Streams, stream(trace.Config{
				Keys:   JournalKeys,
				Seed:   seed + int64(c)*7919,
				Prefix: connPrefix(c),
				Size:   trace.SizeLogNormal(500, 1.0, 20000),
			}, JournalOps, JournalGetPc))
		}
	default:
		_, err := Flags(name)
		return nil, err
	}
	for _, s := range in.Streams {
		in.Requests += int64(len(s.Keys))
	}
	return in, nil
}

// connPrefix gives each connection a disjoint keyspace, so a key's writes
// and reads come from one connection and its expected version is exact.
func connPrefix(c int) string { return "c" + strconv.Itoa(c) + ":" }

// stream materializes cfg's keyspace and n requests over it. getPct percent
// of the requests are marked as gets, drawn from a stream of their own.
func stream(cfg trace.Config, n int, getPct int) Stream {
	space := keyspace(cfg)
	cfg.Requests = int64(n)
	g := trace.NewGenerator(cfg)
	s := Stream{Space: space, Keys: make([]int32, 0, n)}
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		idx, _ := KeyIndex([]byte(r.Key), len(cfg.Prefix))
		s.Keys = append(s.Keys, int32(idx))
	}
	if getPct > 0 {
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
		s.Gets = make([]bool, n)
		for i := range s.Gets {
			s.Gets[i] = rng.Intn(100) < getPct
		}
	}
	return s
}

// keyspace runs cfg's generator once over every key in index order. Size
// and cost are a pure function of (seed, key index), so this yields the
// same metadata the sampled stream attaches to each reference.
func keyspace(cfg trace.Config) Keyspace {
	cfg.Dist = &sequential{n: cfg.Keys}
	cfg.Requests = int64(cfg.Keys)
	g := trace.NewGenerator(cfg)
	ks := Keyspace{
		Prefix: cfg.Prefix,
		Keys:   make([]string, cfg.Keys),
		Sizes:  make([]int32, cfg.Keys),
		Costs:  make([]int64, cfg.Keys),
	}
	for i := range ks.Keys {
		r, _ := g.Next()
		ks.Keys[i] = r.Key
		ks.Sizes[i] = int32(max(r.Size, HeaderLen))
		ks.Costs[i] = r.Cost
	}
	return ks
}

// sequential is a KeyDist that visits 0, 1, 2, ... in order.
type sequential struct{ n, next int }

func (s *sequential) SampleKey(*rand.Rand) int { i := s.next; s.next++; return i }
func (s *sequential) NumKeys() int             { return s.n }

// KeyIndex parses the index out of a generated key "<prefix>k<index>".
func KeyIndex(key []byte, prefixLen int) (int, bool) {
	if len(key) < prefixLen+2 || key[prefixLen] != 'k' {
		return 0, false
	}
	n := 0
	for _, c := range key[prefixLen+1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// UserBytes is the key plus value bytes a client stores for key idx.
func (ks *Keyspace) UserBytes(idx int) int64 {
	return int64(len(ks.Keys[idx])) + int64(ks.Sizes[idx])
}
