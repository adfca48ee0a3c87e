package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sendTiming is one open-loop request on the loop's clock, as offsets
// from the loop's start.
type sendTiming struct {
	due, sent, done time.Duration
	conn            int
	err             error
}

// latency is the time from when the request was due to its answer, so
// the wait for a free connection counts.
func (s sendTiming) latency() time.Duration { return s.done - s.due }

// lag is how late the request left: the wait for a free connection
// plus the loop's own wake-up delay.
func (s sendTiming) lag() time.Duration { return s.sent - s.due }

// openLoop sends request i of the schedule at start+due[i] or later through
// conns workers, each owning one connection, taking requests in due
// order. A request that falls due while every connection is busy waits
// for the next free one; the schedule never slows down for it. It
// returns when every request has been answered.
func openLoop(start time.Time, due []time.Duration, conns int, send func(conn, i int) error) []sendTiming {
	out := make([]sendTiming, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1) //lint:narrow-ok at most len(due)+conns
				if i >= len(due) {
					return
				}
				time.Sleep(time.Until(start.Add(due[i])))
				sent := time.Since(start)
				err := send(conn, i)
				out[i] = sendTiming{due: due[i], sent: sent, done: time.Since(start), conn: conn, err: err} //lint:shared-ok index i is claimed by exactly one worker
			}
		}(c)
	}
	wg.Wait()
	return out
}
