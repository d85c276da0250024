// Package checkpoint implements the checkpoint/restart style of moving
// computations that the thesis compares migration against (Condor/Remote
// UNIX [Lit87, LLM88], Smith & Ioannidis's remote fork [SI89], and Alonso &
// Kyrimis's facility [AK88]).
//
// A checkpoint writes the process's entire resident memory image and a
// small PCB record to a file in the shared file system; a restart creates a
// *new* process elsewhere that reads the image back and resumes. The
// semantic differences from Sprite migration are the ones the thesis calls
// out, and the tests assert them:
//
//   - the restarted process has a new pid and a new home (it is not the
//     same process);
//   - open streams do not follow; the program must reopen and reposition;
//   - the whole resident image moves twice (source -> file server ->
//     target), whereas Sprite's flush moves only dirty pages once and
//     demand-pages only what is touched.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"sprite/internal/core"
	"sprite/internal/fs"
	"sprite/internal/vm"
)

// ErrBadImage is returned when an image file fails validation.
var ErrBadImage = errors.New("checkpoint: bad image")

// imageMagic guards against restoring from garbage.
const imageMagic = 0x53505249 // "SPRI"

// Header describes a checkpoint image.
type Header struct {
	// CodePages, HeapPages, StackPages are the segment sizes in pages.
	CodePages  int
	HeapPages  int
	StackPages int
	// ResidentHeap and ResidentStack are the counts of image pages saved.
	ResidentHeap  int
	ResidentStack int
	// CPUUsedNanos is accumulated compute time, so a restartable job can
	// resume where it left off.
	CPUUsedNanos int64
}

func (h Header) encode() []byte {
	buf := make([]byte, 4+6*8)
	binary.LittleEndian.PutUint32(buf, imageMagic)
	vals := []int64{
		int64(h.CodePages), int64(h.HeapPages), int64(h.StackPages),
		int64(h.ResidentHeap), int64(h.ResidentStack), h.CPUUsedNanos,
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[4+i*8:], uint64(v))
	}
	return buf
}

func decodeHeader(buf []byte) (Header, error) {
	if len(buf) < 4+6*8 || binary.LittleEndian.Uint32(buf) != imageMagic {
		return Header{}, ErrBadImage
	}
	at := func(i int) int64 { return int64(binary.LittleEndian.Uint64(buf[4+i*8:])) }
	return Header{
		CodePages:     int(at(0)),
		HeapPages:     int(at(1)),
		StackPages:    int(at(2)),
		ResidentHeap:  int(at(3)),
		ResidentStack: int(at(4)),
		CPUUsedNanos:  at(5),
	}, nil
}

// Save writes the calling process's checkpoint image to path: a header plus
// every resident heap/stack page (code pages come from the binary and are
// not saved). It is called by the program itself at a point of its
// choosing, as in Condor.
func Save(ctx *core.Ctx, path string) (Header, error) {
	return SaveFrom(ctx, path, 0)
}

// SaveFrom is Save with a progress base: the recorded CPUUsedNanos is base
// plus the process's own compute time. A supervisor restarting jobs from
// checkpoints passes the CPUUsedNanos it restored from, so progress stays
// cumulative across incarnations even though each restarted process's own
// CPU clock starts at zero.
func SaveFrom(ctx *core.Ctx, path string, base time.Duration) (Header, error) {
	p := ctx.Process()
	space := p.Space()
	if space == nil {
		return Header{}, fmt.Errorf("checkpoint: process %v has no address space", p.PID())
	}
	h := Header{
		CodePages:     space.Code.Pages(),
		HeapPages:     space.Heap.Pages(),
		StackPages:    space.Stack.Pages(),
		ResidentHeap:  space.Heap.ResidentCount(),
		ResidentStack: space.Stack.ResidentCount(),
		CPUUsedNanos:  int64(base + p.CPUUsed()),
	}
	fd, err := ctx.Open(path, fs.WriteMode, fs.OpenOptions{Create: true, Truncate: true})
	if err != nil {
		return Header{}, fmt.Errorf("checkpoint save: %w", err)
	}
	if _, err := ctx.Write(fd, h.encode()); err != nil {
		return Header{}, err
	}
	// The memory payload: every resident page, dirty or clean — a
	// checkpointer cannot tell which pages the backing store already has.
	// Page contents are not modelled, so the payload is zeros.
	pageSize := space.Params().PageSize
	for payload := (h.ResidentHeap + h.ResidentStack) * pageSize; payload > 0; payload -= 16 * 1024 {
		if _, err := ctx.WriteZeros(fd, min(payload, 16*1024)); err != nil {
			return Header{}, err
		}
	}
	// The image must survive the writer's own host crashing — that is its
	// entire purpose — so it cannot sit in the client cache waiting for the
	// delayed write-back. Flush it to the server before declaring success.
	if err := ctx.Fsync(fd); err != nil {
		return Header{}, err
	}
	if err := ctx.Close(fd); err != nil {
		return Header{}, err
	}
	return h, nil
}

// Restore reads the image at path into the calling (freshly started)
// process: the header is validated against the process's own segment sizes
// and the memory payload is read in full, leaving the pages resident.
func Restore(ctx *core.Ctx, path string) (Header, error) {
	p := ctx.Process()
	space := p.Space()
	fd, err := ctx.Open(path, fs.ReadMode, fs.OpenOptions{})
	if err != nil {
		return Header{}, fmt.Errorf("checkpoint restore: %w", err)
	}
	hdrBuf, err := ctx.Read(fd, 4+6*8)
	if err != nil {
		return Header{}, err
	}
	h, err := decodeHeader(hdrBuf)
	if err != nil {
		return Header{}, err
	}
	if h.HeapPages != space.Heap.Pages() || h.StackPages != space.Stack.Pages() {
		return Header{}, fmt.Errorf("%w: image sized %d/%d pages, process %d/%d",
			ErrBadImage, h.HeapPages, h.StackPages, space.Heap.Pages(), space.Stack.Pages())
	}
	pageSize := space.Params().PageSize
	remaining := (h.ResidentHeap + h.ResidentStack) * pageSize
	for remaining > 0 {
		got, err := ctx.ReadCount(fd, min(remaining, 16*1024))
		if err != nil {
			return Header{}, err
		}
		if got == 0 {
			return Header{}, fmt.Errorf("%w: truncated payload", ErrBadImage)
		}
		remaining -= got
	}
	if err := ctx.Close(fd); err != nil {
		return Header{}, err
	}
	// The pages read from the image are now resident (and dirty: the
	// backing store has not seen them).
	markResident(space.Heap, h.ResidentHeap)
	markResident(space.Stack, h.ResidentStack)
	return h, nil
}

func markResident(seg *vm.Segment, n int) {
	for i := 0; i < n && i < seg.Pages(); i++ {
		seg.MarkResident(i, true)
	}
}
