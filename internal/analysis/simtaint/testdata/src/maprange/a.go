// Fixture for simtaint's local map-range sinks: order-sensitive work
// inside a range over a map is a violation unless the collect-then-sort
// idiom (or per-iteration scratch) makes the map's random order
// irrelevant.
package maprange

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	sim "sprite/internal/sim"
)

func appendNoSort(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `map-order-derived value reaches an append with no later sort`
	}
	return out
}

// collect-then-sort: the append is fine because the function sorts after
// the loop.
func appendThenSort(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// a local helper whose name mentions sort also counts.
func appendThenHelper(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sortKeys(out)
	return out
}

func sortKeys(s []string) { sort.Strings(s) }

// per-iteration scratch: the slice is declared inside the body, so its
// order owes nothing to map iteration.
func bodyLocalScratch(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var evens []int
		for _, v := range vs {
			if v%2 == 0 {
				evens = append(evens, v)
			}
		}
		total += len(evens)
	}
	return total
}

func printing(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `map-order-derived value reaches fmt\.Println;`
	}
}

func writerSink(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `map-order-derived value reaches strings\.\(Builder\)\.WriteString`
	}
	return b.String()
}

func channelSend(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want `map-order-derived value reaches a channel send`
	}
}

func stringConcat(m map[string]int) string {
	s := ""
	for k := range m {
		s += k // want `map-order-derived value reaches a string \+=`
	}
	return s
}

// commutative accumulation is fine.
func commutative(m map[string]int) int {
	sum := 0
	inverse := make(map[int]string, len(m))
	for k, v := range m {
		sum += v
		inverse[v] = k
	}
	return sum + len(inverse)
}

// ranging over a slice is not a map range.
func sliceRange(xs []string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

func suppressed(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) //spritelint:allow simtaint fixture exercises the escape hatch
	}
	return out
}

// slices.Sorted over maps.Keys is the standard sorted-keys walk: the
// emitted keys no longer depend on map order.
func emitSortedKeys(env *sim.Env, m map[string]string) {
	for _, k := range slices.Sorted(maps.Keys(m)) {
		env.Emit("key", k)
	}
}

// Sorting masks map order only: a wall-clock-derived sequence stays
// tainted after it is sorted.
func emitSortedStamps(env *sim.Env) {
	stamps := slices.Values([]string{time.Now().String()}) // want `wall-clock time\.Now in simulated code`
	for _, s := range slices.Sorted(stamps) {
		env.Emit("stamp", s) // want `wall-clock-derived value reaches sim\.\(Env\)\.Emit`
	}
}

// An unsorted maps.Keys sequence still carries map order.
func emitKeysUnsorted(env *sim.Env, m map[string]string) {
	for k := range maps.Keys(m) {
		env.Emit("key", k) // want `map-order-derived value reaches sim\.\(Env\)\.Emit`
	}
}
