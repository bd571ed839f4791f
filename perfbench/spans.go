package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call, kept in memory during the traced run and written
// out when it ends. Times are nanoseconds since the trace epoch.
type span struct {
	name       uint8
	parent     int32 // index of the parent span in the same log, or -1
	req        int64 // request id shared by a request's spans
	start, end int64
}

// Span names: the driver's own loop iteration and its calls into kvclient.
const (
	spanRequest    uint8 = iota // one closed-loop iteration of the driver
	spanGet                     // kvclient.MultiGetFunc
	spanSet                     // kvclient.Set
	spanSetNoreply              // kvclient.SetNoreply
)

var spanNames = []string{"driver.request", "kvclient.get", "kvclient.set", "kvclient.set_noreply"}

// spanLog is one connection's spans; each connection owns its log, so
// recording takes no lock.
type spanLog struct {
	epoch time.Time
	conn  int
	spans []span
}

// begin opens a span and returns its index.
func (l *spanLog) begin(name uint8, parent int32, req int64) int32 {
	l.spans = append(l.spans, span{name: name, parent: parent, req: req, start: int64(time.Since(l.epoch))})
	return int32(len(l.spans) - 1)
}

// end closes span i.
func (l *spanLog) end(i int32) { l.spans[i].end = int64(time.Since(l.epoch)) }

// selfTimes sums each span name's self time: its duration minus the part
// its children cover. Children never overlap each other here, as every
// call is synchronous.
func selfTimes(logs []*spanLog) []time.Duration {
	self := make([]time.Duration, len(spanNames))
	for _, l := range logs {
		child := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range l.spans {
			self[s.name] += time.Duration(s.end - s.start - child[i])
		}
	}
	return self
}

// writeSpans writes every span as a tab-separated line:
// conn, request id, span id, parent id, name, start ns, end ns.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "conn\treq\tspan\tparent\tname\tstart_ns\tend_ns")
	for _, l := range logs {
		for i, s := range l.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", l.conn, s.req, i, s.parent, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
