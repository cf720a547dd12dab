package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// PoissonSchedule returns the send offsets of an open loop at the given
// rate (per second) over a window: round(rate·window) arrivals at
// independent uniform times, sorted — a Poisson process conditioned on
// its count, so the offered load of a window is exact while arrivals keep
// their bursts. The same rng state yields the same schedule.
func PoissonSchedule(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	n := int(math.Round(rate * window.Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Shot is one open-loop request, every time relative to the loop start.
// Latency runs from the scheduled time, not the send time, so a request
// the generator (or a saturated client connection pool) held back is
// charged its full wait — the loop does not hide coordinated omission.
type Shot struct {
	Sched, Sent, Done time.Duration
	Failed            bool
}

// LagMs is how late the generator sent the request.
func (s Shot) LagMs() float64 { return ms(s.Sent - s.Sched) }

// LatencyMs is the client-observed latency from the scheduled send; a
// failed request is +Inf (it missed every latency limit).
func (s Shot) LatencyMs() float64 {
	if s.Failed {
		return math.Inf(1)
	}
	return ms(s.Done - s.Sched)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// OpenLoop fires fire(i) at each scheduled offset from its own goroutine
// and returns once every request has completed. The second result is the
// number of requests still outstanding at the end of the schedule window
// — the backlog an overloaded server accumulates. fire reports whether
// the request failed.
func OpenLoop(offsets []time.Duration, window time.Duration, fire func(i int) bool) ([]Shot, int) {
	shots := make([]Shot, len(offsets))
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := make([]bool, len(offsets))
	for i, at := range offsets {
		if d := at - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sent := time.Since(start)
			failed := fire(i)
			end := time.Since(start)
			mu.Lock()
			shots[i] = Shot{Sched: offsets[i], Sent: sent, Done: end, Failed: failed}
			done[i] = true
			mu.Unlock()
		}(i)
	}
	if d := window - time.Since(start); d > 0 {
		time.Sleep(d)
	}
	mu.Lock()
	backlog := 0
	for _, ok := range done {
		if !ok {
			backlog++
		}
	}
	mu.Unlock()
	wg.Wait()
	return shots, backlog
}

// servedSeconds is the span from the first send to the last completion.
func servedSeconds(shots []Shot) float64 {
	if len(shots) == 0 {
		return 0
	}
	first, last := shots[0].Sent, shots[0].Done
	for _, s := range shots {
		if s.Sent < first {
			first = s.Sent
		}
		if s.Done > last {
			last = s.Done
		}
	}
	return (last - first).Seconds()
}

// ClosedLoop runs clients goroutines, each calling op back to back until
// the window has passed, and returns the completion rate (successful ops
// per second over the time until the last one finished) with the latency
// of every op that asked to be sampled (+Inf for a failed one). op reports
// whether it succeeded and whether its latency belongs to the sample. With
// the clients saturating the server, the rate is the highest one it
// sustains while the backlog stays bounded by the client count.
func ClosedLoop(clients int, window time.Duration, op func() (ok, sampled bool)) (float64, []float64) {
	var mu sync.Mutex
	var lat []float64
	done := 0
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < window {
				t := time.Now()
				ok, sampled := op()
				d := ms(time.Since(t))
				if !ok {
					d = math.Inf(1)
				}
				mu.Lock()
				if ok {
					done++
				}
				if sampled {
					lat = append(lat, d)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return float64(done) / time.Since(start).Seconds(), lat
}
