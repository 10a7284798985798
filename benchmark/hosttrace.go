package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// hostSpan is one interval of host time the harness spent in one of its
// own calls into the program.
type hostSpan struct {
	name   string
	parent string
	round  int // -1 outside the rounds
	start  time.Time
	end    time.Time
}

// hostTrace keeps the harness's host-clock spans in memory until the run
// ends. A nil *hostTrace records nothing, so the timed run carries none.
type hostTrace struct {
	origin time.Time
	spans  []hostSpan
}

func newHostTrace() *hostTrace { return &hostTrace{origin: now()} }

func (h *hostTrace) add(name, parent string, round int, start, end time.Time) {
	if h == nil {
		return
	}
	h.spans = append(h.spans, hostSpan{name, parent, round, start, end})
}

// begin opens a span and returns the function that closes it.
func (h *hostTrace) begin(name, parent string) func() {
	if h == nil {
		return func() {}
	}
	start := now()
	return func() { h.add(name, parent, -1, start, now()) }
}

// total is the summed duration of the spans called name.
func (h *hostTrace) total(name string) time.Duration {
	var d time.Duration
	if h == nil {
		return d
	}
	for _, s := range h.spans {
		if s.name == name {
			d += s.end.Sub(s.start)
		}
	}
	return d
}

// write stores the spans in Chrome trace-event format: one process, one
// thread per span name so that parents and children do not overlap on a
// track, timestamps in microseconds since the trace began.
func (h *hostTrace) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	tids := map[string]int{}
	fmt.Fprint(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	fmt.Fprint(w, "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"benchmark harness (host clock)\"}}")
	for _, s := range h.spans {
		tid, ok := tids[s.name]
		if !ok {
			tid = len(tids) + 1
			tids[s.name] = tid
			fmt.Fprintf(w, ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%q}}", tid, s.name)
		}
		fmt.Fprintf(w, ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"name\":%q,\"args\":{\"parent\":%q,\"round\":%d}}",
			tid, float64(s.start.Sub(h.origin).Nanoseconds())/1e3,
			float64(s.end.Sub(s.start).Nanoseconds())/1e3, s.name, s.parent, s.round)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
