package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// Property: random (at, seq) pushes, most of them tied on at, interleaved
// with pops, come off the event queue in (at, seq) order, and every slot a
// pop vacates is nil.
func TestEventQueuePopsInOrder(t *testing.T) {
	f := func(keys []uint16, pops []bool) bool {
		var q eventQueue
		var pending []*event // what the queue should hold, kept sorted
		popOK := func() bool {
			ev := q.pop()
			if ev != pending[0] {
				return false
			}
			pending = pending[1:]
			for _, stale := range q[len(q):cap(q)] {
				if stale != nil {
					return false
				}
			}
			return true
		}
		for i, k := range keys {
			// 16 distinct times, so ties on at are the rule; the seq is
			// unique, and not in push order.
			ev := &event{at: time.Duration(k >> 12), seq: uint64(k&0xfff)<<16 | uint64(i)}
			q.push(ev)
			pending = append(pending, ev)
			sort.Slice(pending, func(a, b int) bool {
				x, y := pending[a], pending[b]
				return x.at < y.at || x.at == y.at && x.seq < y.seq
			})
			if i < len(pops) && pops[i] && !popOK() {
				return false
			}
		}
		for len(q) > 0 {
			if !popOK() {
				return false
			}
		}
		return len(pending) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEventQueue prices the queue's share of one event step — pop the
// earliest event, push its successor — at a steady depth. The depths are
// the mean queue depths at schedule time on the end-to-end benchmark's
// mig_churn and pmake_fs (12), mig_bulk (75) and fleet_par (185); the sim
// rungs of the benchmark's ladder run at depth 8 or less.
func BenchmarkEventQueue(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 1024)
	for i := range delays {
		delays[i] = time.Duration(r.Intn(1000)) * time.Microsecond
	}
	for _, depth := range []int{12, 75, 185} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var q eventQueue
			var seq uint64
			for i := 0; i < depth; i++ {
				seq++
				q.push(&event{at: delays[i], seq: seq})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := q.pop()
				seq++
				ev.at += delays[i%len(delays)]
				ev.seq = seq
				q.push(ev)
			}
		})
	}
}
