package core

import (
	"fmt"
	"os"
	"testing"
)

// TestGoldenFrozenUnderParallelKernel is the golden freeze: the committed
// migration snapshot must pass byte-for-byte with the conservative
// parallel kernel switched on, at every worker count. The parallel kernel
// commits the serial event order exactly, so a golden that moves here is a
// kernel bug, never an acceptable regeneration.
func TestGoldenFrozenUnderParallelKernel(t *testing.T) {
	want, err := os.ReadFile(migrationGolden("batched"))
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
	}
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("batched/workers%d", workers), func(t *testing.T) {
			got := migrationSnapshot(t, 1, SpriteFlushStrategy{}, SimParams{Parallel: true, Workers: workers})
			if got != string(want) {
				t.Fatalf("parallel kernel moved the golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}
