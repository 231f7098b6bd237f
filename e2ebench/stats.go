package main

import (
	"math"
	"regexp"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile
// for the sample to support it: p50 needs 20 samples, p90 100, p99
// 1000.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by nearest
// rank, and whether at least minBeyond samples lie above that rank.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n-rank >= minBeyond
}

// samples collects one timing series; safe for concurrent use.
type samples struct {
	mu   sync.Mutex
	vals []float64
}

func (s *samples) add(v float64) {
	s.mu.Lock()
	s.vals = append(s.vals, v)
	s.mu.Unlock()
}

func (s *samples) addDuration(d time.Duration) { s.add(ms(d)) }

// sorted returns a sorted copy of the collected values.
func (s *samples) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.vals...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// schedule is an open-loop timetable: operation i is due at
// start + i/rate, whatever happened to the operations before it.
type schedule struct {
	start time.Time
	rate  float64 // operations per second
}

func (s schedule) due(i int64) time.Time {
	return s.start.Add(time.Duration(float64(i) * float64(time.Second) / s.rate))
}

// count is the number of operations due strictly before end.
func (s schedule) count(end time.Time) int64 {
	n := int64(math.Ceil(end.Sub(s.start).Seconds() * s.rate))
	if n < 0 {
		return 0
	}
	return n
}

// lateThreshold is how far behind its due time a send may start
// before it counts as late: sleep wake-up jitter stays below it.
const lateThreshold = time.Millisecond

// lateness accounts how far an open-loop generator fell behind its
// timetable; safe for concurrent use.
type lateness struct {
	mu    sync.Mutex
	sends int
	late  int
	by    samples
}

// record notes that the operation due at due started at sent.
func (l *lateness) record(due, sent time.Time) {
	d := max(sent.Sub(due), 0)
	l.mu.Lock()
	l.sends++
	if d > lateThreshold {
		l.late++
	}
	l.mu.Unlock()
	l.by.addDuration(d)
}

// frac is the share of sends that started late.
func (l *lateness) frac() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sends == 0 {
		return 0
	}
	return float64(l.late) / float64(l.sends)
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is usable as a workload or metric name.
func validName(s string) bool { return namePattern.MatchString(s) }

var unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func validUnit(s string) bool { return unitPattern.MatchString(s) }
