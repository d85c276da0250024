package fs

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// TestStreamOwnersAgainstModel drives random Dup, Close, shift, ScrubHost
// and RecoverStream over two streams opened on one host, spreading their
// references across four hosts, and compares both after every step with a
// map model: Refs, RefsOn for every host, hostsWithRefs, Owners and Closed.
// A closed stream is replaced by a fresh one opened on a random host. With
// the two side by side, a step on one that changed the other — storage
// shared once either outgrew its first owner slot — shows as a mismatch,
// and the test also checks their owner arrays directly.
func TestStreamOwnersAgainstModel(t *testing.T) {
	const ops = 300
	hosts := []rpc.HostID{2, 3, 4, 5}
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			h := newHarness(t, len(hosts))
			if _, err := h.fs.Seed("/f", []byte("data"), false); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			type modelStream struct {
				st     *Stream
				refs   map[rpc.HostID]int
				closed bool
			}
			// shift applies Stream.shift's rule to the model.
			shift := func(m *modelStream, from, to rpc.HostID, n int) {
				if n = min(n, m.refs[from]); n <= 0 {
					return
				}
				if m.refs[from] -= n; m.refs[from] == 0 {
					delete(m.refs, from)
				}
				if to != rpc.NoHost {
					m.refs[to] += n
				}
				if len(m.refs) == 0 {
					m.closed = true
				}
			}
			check := func(step int, op string, i int, m *modelStream) {
				t.Helper()
				st := m.st
				total := 0
				for _, n := range m.refs {
					total += n
				}
				if st.Refs() != total || st.hostsWithRefs() != len(m.refs) || st.Closed() != m.closed {
					t.Errorf("step %d (%s) stream %d: Refs %d, hostsWithRefs %d, Closed %v; model %d, %d, %v",
						step, op, i, st.Refs(), st.hostsWithRefs(), st.Closed(), total, len(m.refs), m.closed)
				}
				for host := rpc.NoHost; host <= hosts[len(hosts)-1]+1; host++ {
					if got := st.RefsOn(host); got != m.refs[host] {
						t.Errorf("step %d (%s) stream %d: RefsOn(%v) = %d, model %d", step, op, i, host, got, m.refs[host])
					}
				}
				if got := st.Owners(); !maps.Equal(got, m.refs) {
					t.Errorf("step %d (%s) stream %d: Owners %v, model %v", step, op, i, got, m.refs)
				}
			}
			h.run(t, func(env *sim.Env) error {
				open := func(host rpc.HostID) (*modelStream, error) {
					st, err := h.fs.Client(host).Open(env, "/f", ReadMode, OpenOptions{})
					return &modelStream{st: st, refs: map[rpc.HostID]int{host: 1}}, err
				}
				var ms [2]*modelStream
				for i := range ms {
					var err error
					if ms[i], err = open(hosts[0]); err != nil {
						return err
					}
				}
				for step := 0; step < ops; step++ {
					i := rng.Intn(2)
					m := ms[i]
					from, to := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
					var op string
					switch rng.Intn(6) {
					case 0, 1:
						op = "dup"
						err := h.fs.Client(from).Dup(m.st)
						if m.closed != errors.Is(err, ErrBadStream) {
							t.Errorf("step %d: Dup on %v = %v with model closed=%v", step, from, err, m.closed)
						}
						if err == nil {
							m.refs[from]++
						}
					case 2:
						op = "close"
						err := h.fs.Client(from).Close(env, m.st)
						if bad := m.closed || m.refs[from] == 0; bad != errors.Is(err, ErrBadStream) {
							t.Errorf("step %d: Close on %v = %v; model closed=%v refs=%d", step, from, err, m.closed, m.refs[from])
						} else if !bad {
							if err != nil {
								return err
							}
							shift(m, from, rpc.NoHost, 1)
						}
					case 3:
						op = "shift"
						if rng.Intn(4) == 0 {
							to = rpc.NoHost
						}
						n := 1 + rng.Intn(3)
						m.st.shift(from, to, n)
						shift(m, from, to, n)
					case 4:
						op = "scrub"
						m.st.ScrubHost(from)
						shift(m, from, rpc.NoHost, m.refs[from])
					default:
						op = "recover"
						h.fs.RecoverStream(m.st, from, to)
						shift(m, from, to, m.refs[from])
					}
					for j, m := range ms {
						check(step, op, j, m)
					}
					if a, b := ms[0].st.owners, ms[1].st.owners; cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0] {
						t.Errorf("step %d (%s): the two streams share owner storage", step, op)
					}
					if t.Failed() {
						return nil
					}
					if m.closed {
						var err error
						if ms[i], err = open(hosts[rng.Intn(len(hosts))]); err != nil {
							return err
						}
					}
				}
				return nil
			})
		})
	}
}
