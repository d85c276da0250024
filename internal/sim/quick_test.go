package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Property: virtual time as observed by any activity never decreases, for
// arbitrary sleep sequences across many activities.
func TestTimeMonotoneUnderRandomSleeps(t *testing.T) {
	f := func(seed int64, sleeps []uint16) bool {
		if len(sleeps) == 0 {
			return true
		}
		s := New(seed)
		ok := true
		var last time.Duration
		observe := func(env *Env) {
			if env.Now() < last {
				ok = false
			}
			last = env.Now()
		}
		for i := 0; i < 4; i++ {
			offset := i
			s.Spawn(fmt.Sprintf("a%d", i), func(env *Env) error {
				for j := offset; j < len(sleeps); j += 4 {
					if err := env.Sleep(time.Duration(sleeps[j]) * time.Millisecond); err != nil {
						return err
					}
					observe(env)
				}
				return nil
			})
		}
		if err := s.Run(0); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: under random acquire/use/release traffic a resource never
// admits more holders than it has slots, and everyone eventually finishes.
func TestResourceNeverOversubscribed(t *testing.T) {
	f := func(seed int64, slots8, users8 uint8) bool {
		slots := 1 + int(slots8%4)
		users := 1 + int(users8%8)
		s := New(seed)
		r := NewResource(s, slots)
		holders := 0
		violated := false
		for i := 0; i < users; i++ {
			s.Spawn(fmt.Sprintf("u%d", i), func(env *Env) error {
				rng := rand.New(rand.NewSource(seed + int64(i)))
				for j := 0; j < 5; j++ {
					if err := r.Acquire(env); err != nil {
						return err
					}
					holders++
					if holders > slots {
						violated = true
					}
					if err := env.Sleep(time.Duration(rng.Intn(10)) * time.Millisecond); err != nil {
						return err
					}
					holders--
					r.Release()
				}
				return nil
			})
		}
		if err := s.Run(0); err != nil {
			return false
		}
		return !violated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: a run with the same seed and program produces the same final
// virtual time and the same interleaving.
func TestRunsAreReproducible(t *testing.T) {
	run := func(seed int64) (time.Duration, string) {
		s := New(seed)
		trace := ""
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("a%d", i)
			d := time.Duration(rng.Intn(50)) * time.Millisecond
			s.Spawn(name, func(env *Env) error {
				if err := env.Sleep(d); err != nil {
					return err
				}
				trace += env.Name() + ";"
				return env.Sleep(time.Duration(env.Rand().Intn(20)) * time.Millisecond)
			})
		}
		if err := s.Run(0); err != nil {
			return 0, "err"
		}
		return s.Now(), trace
	}
	f := func(seed int64) bool {
		t1, tr1 := run(seed)
		t2, tr2 := run(seed)
		return t1 == t2 && tr1 == tr2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: WaitGroup.Wait returns exactly when the counter hits zero even
// for randomized completion orders.
func TestWaitGroupRandomizedCompletions(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := 1 + int(n8%10)
		s := New(seed)
		wg := NewWaitGroup()
		wg.Add(n)
		var maxEnd time.Duration
		for i := 0; i < n; i++ {
			d := time.Duration((seed%7+int64(i*13))%50) * time.Millisecond
			if d > maxEnd {
				maxEnd = d
			}
			s.Spawn(fmt.Sprintf("w%d", i), func(env *Env) error {
				defer wg.Done()
				return env.Sleep(d)
			})
		}
		var wokeAt time.Duration
		s.Spawn("waiter", func(env *Env) error {
			if err := wg.Wait(env); err != nil {
				return err
			}
			wokeAt = env.Now()
			return nil
		})
		if err := s.Run(0); err != nil {
			return false
		}
		return wokeAt == maxEnd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
