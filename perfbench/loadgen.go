package main

import (
	"math/rand"
	"sync"
	"time"
)

// arrival is one open-loop request: when it is due, relative to the
// phase start, and which input it sends.
type arrival struct {
	due  time.Duration
	item int
}

// poisson draws the arrivals of a phase: exponential gaps at rate req/s
// for dur, each sending a uniformly chosen one of items inputs.
func poisson(rng *rand.Rand, rate float64, dur time.Duration, items int) []arrival {
	var out []arrival
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return out
		}
		out = append(out, arrival{due: t, item: rng.Intn(items)})
	}
}

// phase is what one open-loop phase measured. Requests due inside the
// warm-up are sent and checked but not timed.
type phase struct {
	latMS      []float64 // due time → response, per timed request
	class      []int     // the class do reported for each timed request
	latenessMS []float64 // how late the generator handed each request out
	backlogMax int       // most requests due but not yet started
	failed     int       // requests that failed or returned a wrong output
	sent       int
}

// openLoop sends arrs on schedule through conns workers, each with one
// request outstanding at a time, and times each request from when it
// was due, so a stall also counts against the requests queued behind it.
// do performs and checks one request, and names its class: requests of
// one class do the same work.
func openLoop(conns int, arrs []arrival, warmup time.Duration, do func(item int) (class int, ok bool)) phase {
	// Sized to the number of sends, so the dispatcher never blocks and
	// its queue length is the backlog.
	queue := make(chan arrival, len(arrs))
	var (
		mu sync.Mutex
		ph phase
		wg sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				class, ok := do(j.item)
				lat := time.Since(start.Add(j.due))
				mu.Lock()
				if !ok {
					ph.failed++
				}
				if j.due >= warmup {
					ph.latMS = append(ph.latMS, ms(lat))
					ph.class = append(ph.class, class)
				}
				mu.Unlock()
			}
		}()
	}
	for _, a := range arrs {
		if d := time.Until(start.Add(a.due)); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(start.Add(a.due))
		queue <- a
		ph.backlogMax = max(ph.backlogMax, len(queue))
		if a.due >= warmup {
			ph.latenessMS = append(ph.latenessMS, ms(late))
		}
	}
	close(queue)
	wg.Wait()
	ph.sent = len(arrs)
	return ph
}

// classMeanMS is the geometric mean over request classes of each
// class's interquartile-mean latency, so that the random mix of classes
// in a run does not move it.
func classMeanMS(lat []float64, class []int) float64 {
	by := map[int][]float64{}
	for i, c := range class {
		by[c] = append(by[c], lat[i])
	}
	var means []float64
	for _, xs := range by {
		means = append(means, iqm(xs))
	}
	return geomean(means)
}
