package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spans records the benchmark's own spans around every call it makes into
// a layer's public functions: name, start, end and the enclosing span. A
// nil *spans records nothing, so untimed paths pay one branch.
type spans struct {
	epoch time.Time
	names []string
	ids   map[string]uint16
	recs  []spanRec
	open  []int32 // stack of open span indexes
}

type spanRec struct {
	start, end int64 // ns since epoch
	parent     int32 // -1 for a root span
	name       uint16
}

func newSpans() *spans {
	return &spans{epoch: time.Now(), ids: map[string]uint16{}}
}

// begin opens a span under the innermost open span and returns its index.
func (s *spans) begin(name string) int32 {
	if s == nil {
		return -1
	}
	id, ok := s.ids[name]
	if !ok {
		id = uint16(len(s.names))
		s.ids[name] = id
		s.names = append(s.names, name)
	}
	parent := int32(-1)
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	i := int32(len(s.recs))
	s.recs = append(s.recs, spanRec{start: int64(time.Since(s.epoch)), parent: parent, name: id})
	s.open = append(s.open, i)
	return i
}

// end closes span i, which must be the innermost open one.
func (s *spans) end(i int32) {
	if s == nil || i < 0 {
		return
	}
	s.recs[i].end = int64(time.Since(s.epoch))
	s.open = s.open[:len(s.open)-1]
}

// absorb appends o's closed spans (recorded on another goroutine) as roots
// and children of their own, keeping their names.
func (s *spans) absorb(o *spans) {
	if s == nil || o == nil {
		return
	}
	base := int32(len(s.recs))
	shift := int64(o.epoch.Sub(s.epoch))
	for _, r := range o.recs {
		name := o.names[r.name]
		id, ok := s.ids[name]
		if !ok {
			id = uint16(len(s.names))
			s.ids[name] = id
			s.names = append(s.names, name)
		}
		if r.parent >= 0 {
			r.parent += base
		}
		r.start += shift
		r.end += shift
		r.name = id
		s.recs = append(s.recs, r)
	}
}

// spanAgg is one span name's totals: count, summed duration, and self time
// (duration minus the part its child spans cover).
type spanAgg struct {
	count       int64
	total, self time.Duration
}

func (s *spans) aggregate() map[string]spanAgg {
	out := map[string]spanAgg{}
	if s == nil {
		return out
	}
	child := make([]int64, len(s.recs))
	for _, r := range s.recs {
		if r.parent >= 0 {
			child[r.parent] += r.end - r.start
		}
	}
	for i, r := range s.recs {
		a := out[s.names[r.name]]
		a.count++
		a.total += time.Duration(r.end - r.start)
		a.self += time.Duration(r.end - r.start - child[i])
		out[s.names[r.name]] = a
	}
	return out
}

// write saves the span totals as CSV under dir, one row per span name.
func (s *spans) write(dir, file string) error {
	if s == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	agg := s.aggregate()
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "span,count,total_ns,self_ns,mean_ns")
	for _, n := range names {
		a := agg[n]
		fmt.Fprintf(w, "%s,%d,%d,%d,%.1f\n", n, a.count, a.total, a.self,
			float64(a.total)/float64(a.count))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
