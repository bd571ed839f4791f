// Command perfbench is the repository's end-to-end benchmark. It starts
// campsrv as its own process, drives it over the memcached text protocol
// with kvclient from two closed-loop connections, checks every reply, and
// prints one JSON result line last.
//
// Usage (run.sh builds campsrv and the driver, and passes campsrv's path):
//
//	perfbench --workload bg-evict|hot-read|write-journal --seed N --seconds S --trace 0|1
//	          --campsrv BIN [--out DIR]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the timed phase
// as an untraced half and a traced half, records spans around every
// kvclient call, reads the server's own counters, runs the in-process layer
// replays, and reports the per-layer metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"camp/internal/kvclient"
	"camp/perfbench/work"
)

// The metrics BENCHMARK.json declares. Every run prints all of them for its
// mode; the tests check the lists against BENCHMARK.json.
var (
	endToEnd = []string{"setup_s", "ops_per_s", "get_p50_us", "get_p90_us", "rss_per_live_byte"}
	perLayer = []string{
		"core.get_ns", "core.set_ns", "core.set_evicting_ns",
		"core.heap_visits_per_op", "core.heap_updates_per_op", "core.queue_count",
		"core.miss_ratio", "core.cost_miss_ratio",
		"proto.parse_ns_per_cmd", "proto.bytes_per_cmd",
		"kvserver.cpu_us_per_op", "kvserver.handler_us_mean.get", "kvserver.handler_us_mean.set",
		"kvserver.handler_share", "kvserver.lock_holds_per_op",
		"kvserver.evictions_per_set",
		"alloc.append_ns", "alloc.compact_step_ns", "alloc.relocated_bytes_per_user_byte",
		"alloc.held_bytes_per_live_byte",
		"persist.append_batch_ns_per_op", "persist.journal_bytes_per_user_byte", "persist.recover_ops_per_s",
		"kvclient.cpu_us_per_op", "kvclient.outside_handler_us_per_op", "driver.self_us_per_op",
		"driver.trace_overhead_ratio", "trace.gen_ns_per_req",
	}
)

// driverProcs is the driver's GOMAXPROCS. One P leaves the server's two
// Ps a CPU of their own: with two, four runnable threads on two CPUs made
// the tail latency follow the scheduler from run to run. Both connections
// still run concurrently, and kvclient.cpu_us_per_op shows how close the
// driver is to saturating its P.
const driverProcs = 1

// warmup is how long the workload runs untimed before the timed phase.
const warmup = 2 * time.Second

// setups is how many times a run sets the server up; setup_s is their
// median.
const setups = 5

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	campsrv  string
	out      string
	// inject is a fault to plant before the final read-back, "corrupt" or
	// "lost"; only the benchmark's own tests set it, to prove the checks.
	inject string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	var o options
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(work.Names, ", "))
	fl.Int64Var(&o.seed, "seed", 1, "workload seed")
	fl.IntVar(&o.seconds, "seconds", 10, "timed phase length in seconds")
	fl.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fl.StringVar(&o.campsrv, "campsrv", "", "campsrv binary")
	fl.StringVar(&o.out, "out", ".bench_build", "directory for data, logs, spans and result files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if _, err := work.Flags(o.workload); err != nil || o.seconds < 1 || o.campsrv == "" ||
		o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need a known --workload, --seconds >= 1, --campsrv and --trace 0|1")
		return 2
	}
	return execute(o, stdout)
}

// execute runs the benchmark o describes, prints its result line last and
// returns the exit code.
func execute(o options, stdout io.Writer) int {
	runtime.GOMAXPROCS(driverProcs)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sigc)
		close(sigc)
	}()
	go func() {
		if _, ok := <-sigc; ok {
			killAll()
			os.Exit(130)
		}
	}()

	res, err := bench(o, stdout)
	killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects every metric a run measured, in print order.
type report struct {
	names []string
	m     map[string]metric
	notes map[string]string
}

func (r *report) add(name string, v float64, unit, note string) {
	if r.m == nil {
		r.m, r.notes = map[string]metric{}, map[string]string{}
	}
	if _, ok := r.m[name]; !ok {
		r.names = append(r.names, name)
	}
	r.m[name] = metric{v, unit}
	r.notes[name] = note
}

// bench runs one workload end to end and returns its result line.
func bench(o options, stdout io.Writer) (*result, error) {
	flags, _ := work.Flags(o.workload)
	dir, err := filepath.Abs(filepath.Join(o.out, fmt.Sprintf("run-%s-%d", o.workload, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	persistent := o.workload == "write-journal"
	fsync := "none (no data dir)"
	if i := slices.Index(flags, "-fsync"); i >= 0 {
		fsync = flags[i+1]
	}

	meta := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"host_nproc": runtime.NumCPU(), "driver_gomaxprocs": runtime.GOMAXPROCS(0),
		"server_gomaxprocs": runtime.NumCPU(), "go_version": runtime.Version(),
		"commit": commit(), "source_sha256": sourceHash("."),
		"campsrv_flags": strings.Join(flags, " ") + dataDirNote(persistent),
		"fsync":         fsync, "conns": work.Conns, "setups": setups,
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(stdout, "# host nproc=%d driver_gomaxprocs=%d server_gomaxprocs=%d go=%s commit=%s source_sha256=%s\n",
		meta["host_nproc"], meta["driver_gomaxprocs"], meta["server_gomaxprocs"], meta["go_version"], meta["commit"], meta["source_sha256"])
	fmt.Fprintf(stdout, "# campsrv %s; fsync=%s; %d closed-loop connections\n", meta["campsrv_flags"], fsync, work.Conns)

	// Generation happens before any timing.
	t0 := time.Now()
	in, err := work.Generate(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	genNs := float64(time.Since(t0).Nanoseconds()) / float64(in.Requests)

	var rep report
	d := &driver{name: o.workload, in: in}

	// Set-up: exec of campsrv until the preload is acknowledged, several
	// times; the last server stays up for the timed phase.
	var setupTimes []float64
	var srv *server
	dataDir := ""
	for i := 0; i < setups; i++ {
		if srv != nil {
			closeConns(d)
			srv.kill()
			// Deleting the data drops its dirty pages, so their write-back
			// does not land in the timed phase.
			if err := os.RemoveAll(dataDir); err != nil {
				return nil, err
			}
		}
		args := slices.Clone(flags)
		if persistent {
			dataDir = filepath.Join(dir, fmt.Sprintf("data-%d", i))
			args = append(args, "-data-dir", dataDir)
		}
		srv, err = startServer(o.campsrv, args, filepath.Join(dir, fmt.Sprintf("campsrv-%d.log", i)))
		if err != nil {
			return nil, err
		}
		if err := setUp(d, srv.addr); err != nil {
			return nil, fmt.Errorf("set-up: %w; server log:\n%s", err, tail(srv.logPath))
		}
		setupTimes = append(setupTimes, time.Since(srv.started).Seconds())
	}
	rep.add("setup_s", work.Median(setupTimes), "s", fmt.Sprintf("median of %d set-ups", len(setupTimes)))

	// Warm up untimed, so the collector's first cycles after the preload
	// and lazy state in both processes settle before timing; then write
	// back what set-up left dirty.
	if w := d.run(warmup); len(w.fatal) > 0 {
		return nil, fmt.Errorf("warm-up: %w", errors.Join(w.fatal...))
	}
	syscall.Sync()
	for _, c := range d.conns {
		c.timed = true
	}
	dur := time.Duration(o.seconds) * time.Second
	var untraced phase
	if o.trace == 1 {
		untraced = d.run(dur / 2)
		dur -= dur / 2
		epoch := time.Now()
		for _, c := range d.conns {
			c.spans = &spanLog{epoch: epoch, conn: c.id}
			c.setBytes = 0
			c.cm = work.CostMiss{}
		}
	}
	before, err := snapshot(d.conns[0].cli, srv.pid())
	if err != nil {
		return nil, err
	}
	p := d.run(dur)
	after, err := snapshot(d.conns[0].cli, srv.pid())
	if err != nil {
		return nil, err
	}
	for _, c := range d.conns {
		c.timed = false
	}
	var spanLogs []*spanLog
	for _, c := range d.conns {
		if c.spans != nil {
			spanLogs = append(spanLogs, c.spans)
			c.spans = nil
		}
	}

	// Fault injection for the benchmark's own tests.
	if o.inject != "" {
		if err := inject(d.conns[0], o.inject); err != nil {
			return nil, err
		}
	}

	attempted := p.ops + untraced.ops
	var live int64
	var hwm int64
	if persistent {
		hwm, err = procHWM(srv.pid())
		if err != nil {
			return nil, err
		}
		disk, err := dirBytes(dataDir)
		if err != nil {
			return nil, err
		}
		closeConns(d)
		srv.kill()
		// Restart on the same directory; every acknowledged write must
		// come back.
		srv, err = startServer(o.campsrv, append(slices.Clone(flags), "-data-dir", dataDir), filepath.Join(dir, "campsrv-restart.log"))
		if err != nil {
			return nil, err
		}
		if err := reconnect(d, srv.addr); err != nil {
			return nil, err
		}
		if _, err := d.conns[0].cli.Version(); err != nil {
			return nil, err
		}
		recovery := time.Since(srv.started).Seconds()
		for _, c := range d.conns {
			n, checked, err := c.readback(true)
			if err != nil {
				return nil, err
			}
			live += n
			attempted += checked
		}
		rep.add("disk_per_live_byte", float64(disk)/float64(live), "B/B", "data-dir bytes at the end of the timed phase")
		rep.add("recovery_s", recovery, "s", "restart exec until the first reply")
		closeConns(d)
		srv.kill()
	} else {
		for _, c := range d.conns {
			if c.id > 0 && o.workload == "bg-evict" {
				break // one shared keyspace
			}
			n, checked, err := c.readback(o.workload == "hot-read")
			if err != nil {
				return nil, err
			}
			live += n
			attempted += checked
		}
		hwm, err = procHWM(srv.pid())
		if err != nil {
			return nil, err
		}
		closeConns(d)
		srv.kill()
	}

	// End-to-end metrics.
	var cm work.CostMiss
	var failed, setBytes int64
	var errs []string
	for _, c := range d.conns {
		cm.Merge(c.cm)
		failed += c.failed
		setBytes += c.setBytes
		errs = append(errs, c.errs...)
	}
	for _, err := range append(p.fatal, untraced.fatal...) {
		errs = append(errs, err.Error())
	}
	correct := failed == 0 && len(p.fatal) == 0 && len(untraced.fatal) == 0
	meta["ops_per_s_windows"] = p.windows
	rep.add("ops_per_s", rate(p), "1/s", fmt.Sprintf("%d ops in %.2fs; median %v window %.0f/s (not gated)",
		p.ops, p.elapsed.Seconds(), window, work.Median(slices.Clone(p.windows))))
	for _, verb := range []string{"get", "set"} {
		if o.workload == "hot-read" && verb == "set" {
			continue // noreply sets have no reply to time
		}
		var samples []int64
		for _, c := range d.conns {
			if verb == "get" {
				samples = append(samples, c.getLat...)
			} else {
				samples = append(samples, c.setLat...)
			}
		}
		slices.Sort(samples)
		for _, pc := range []float64{50, 90, 99} {
			name := fmt.Sprintf("%s_p%.0f_us", verb, pc)
			v, beyond := work.Quantile(samples, pc/100)
			rep.add(name, float64(v)/1e3, "us", fmt.Sprintf("%d samples, %d beyond", len(samples), beyond))
			if beyond < minBeyond {
				correct = false
				errs = append(errs, fmt.Sprintf("%s: %d samples beyond it, fewer than %d", name, beyond, minBeyond))
			}
		}
	}
	if o.workload == "bg-evict" {
		rep.add("miss_ratio", cm.MissRatio(), "ratio", fmt.Sprintf("%d warm requests", cm.WarmHits+cm.WarmMisses))
		rep.add("cost_miss_ratio", cm.CostMissRatio(), "ratio", "first reference of each key excluded")
	}
	rep.add("error_ratio", float64(failed)/float64(max(attempted, 1)), "ratio", fmt.Sprintf("%d of %d", failed, attempted))
	if live == 0 {
		return nil, errors.New("no live user bytes at the end of the run")
	}
	rep.add("rss_per_live_byte", float64(hwm)/float64(live), "B/B", fmt.Sprintf("VmHWM %d B over %d live user bytes", hwm, live))

	if o.trace == 1 {
		if err := layerMetrics(stdout, &rep, o, d, dir, dataDir, p, untraced, before, after, spanLogs, setBytes, genNs); err != nil {
			return nil, err
		}
		spanPath := filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.tsv", o.workload, o.seed))
		if err := os.MkdirAll(filepath.Dir(spanPath), 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(spanPath, spanLogs); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "# spans: %s\n", spanPath)
	}

	for _, name := range rep.names {
		m := rep.m[name]
		fmt.Fprintf(stdout, "%-46s %14.6g %-8s %s\n", name, m.Value, m.Unit, rep.notes[name])
	}
	for _, e := range errs {
		fmt.Fprintln(stdout, "# FAILED:", e)
	}

	res := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	want := endToEnd
	if o.trace == 1 {
		want = perLayer
	}
	for _, name := range want {
		m, ok := rep.m[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = m
	}
	if err := saveResult(o, meta, rep, res); err != nil {
		return nil, err
	}
	return res, nil
}

// minBeyond is how many samples a reported percentile needs beyond it.
const minBeyond = 10

func dataDirNote(persistent bool) string {
	if persistent {
		return " -data-dir <run dir>"
	}
	return ""
}

// setUp connects the clients and loads the workload's starting state:
// every key at version 1, or for bg-evict a warm-up replay of the first
// requests of its stream.
func setUp(d *driver, addr string) error {
	if err := reconnect(d, addr); err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(d.conns))
	if d.name == "bg-evict" {
		d.cursor.Store(0)
		d.seen = make([]atomic.Bool, len(d.in.Streams[0].Space.Keys))
	}
	for i, c := range d.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d.name != "bg-evict" {
				errs[i] = c.preload()
				return
			}
			for d.cursor.Load() < work.BGWarmup && errs[i] == nil {
				errs[i] = d.step(c)
			}
		}()
	}
	wg.Wait()
	for _, c := range d.conns {
		if c.failed > 0 {
			return errors.New(strings.Join(c.errs, "; "))
		}
	}
	return errors.Join(errs...)
}

// reconnect dials fresh clients for d, keeping each connection's state.
func reconnect(d *driver, addr string) error {
	for i := 0; i < work.Conns; i++ {
		cli, err := kvclient.Dial(addr)
		if err != nil {
			return err
		}
		if i < len(d.conns) {
			d.conns[i].cli = cli
			continue
		}
		st := &d.in.Streams[min(i, len(d.in.Streams)-1)]
		d.conns = append(d.conns, newConn(i, cli, st, d.name != "bg-evict"))
	}
	return nil
}

func closeConns(d *driver) {
	for _, c := range d.conns {
		if c.cli != nil {
			c.cli.Close()
			c.cli = nil
		}
	}
}

// inject plants a fault the final read-back must catch: a stored value
// with one flipped payload byte, or an acknowledged write the server never
// received.
func inject(c *conn, kind string) error {
	sp := &c.st.Space
	k := int(c.st.Keys[0])
	if kind == "lost" {
		c.ver[k]++
		return nil
	}
	v := work.Fill(nil, sp.Keys[k], c.version(k), int(sp.Sizes[k]))
	v[len(v)-1] ^= 1
	return c.cli.Set(sp.Keys[k], v, 0, 0, sp.Costs[k])
}

// commit names the source revision when the checkout is a git work tree.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash fingerprints the Go sources under root, so a result names the
// code it measured even outside a git checkout.
func sourceHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// saveResult writes the run's metadata and every metric to a JSON file
// under the output directory.
func saveResult(o options, meta map[string]any, rep report, res *result) error {
	path := filepath.Join(o.out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	all := map[string]any{"meta": meta, "metrics": rep.m, "result": res}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
