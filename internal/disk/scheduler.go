package disk

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"memstream/internal/device"
)

// Policy selects the order in which queued requests are serviced.
type Policy uint8

// Scheduling policies.
const (
	// FCFS services requests in arrival order.
	FCFS Policy = iota
	// SSTF services the request with the shortest seek from the current
	// cylinder.
	SSTF
	// CLook sweeps cylinders in one direction, then jumps back to the
	// lowest pending cylinder (the elevator variant most drives use; the
	// paper's disk IO scheduler "uses elevator scheduling to optimize for
	// disk utilization").
	CLook
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FCFS:
		return "fcfs"
	case SSTF:
		return "sstf"
	case CLook:
		return "c-look"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Scheduler orders pending requests for a disk Device.
//
// The pending set lives in one arrival-ordered slice with a removed mark
// per entry instead of a queue that shifts on every removal. C-LOOK picks
// come from a batch index built once per enqueue burst. Each live request
// becomes one packed key, cylinder<<32 | arrival index, so its cylinder is
// resolved once (the zone walk in locate was the single hottest call in
// whole-server profiles when it ran per comparison). The keys are written
// in arrival order, then sorted by a stable LSD radix sort over the
// cylinder bits only, in as few passes of at most radixBits bits as the
// largest cylinder needs; batches under radixMin use slices.Sort on the
// same keys instead. Either way the order is (cylinder, arrival): the
// radix sort is stable over arrival-ordered input, and slices.Sort
// compares the arrival index as the key's low half.
//
// A pick binary-searches the keys for cur<<32 — the first entry at or
// above the head's cylinder — and follows skip pointers past dispatched
// entries; when the sweep is exhausted it wraps to the first live key.
// This reproduces the pick order of the historical arrival-order scan
// exactly, tie-breaks included: at an equal cylinder the earliest arrival
// sorts first, and the wrap lands on the earliest arrival at the lowest
// pending cylinder. A batch of n dispatches costs one build plus an
// O(log n) search per pick, not O(n²) cylinder resolutions.
//
// All storage is reused across batches, and Rebind re-arms a pooled
// Scheduler for another device, so steady-state scheduling allocates
// nothing.
type Scheduler struct {
	dev    *Device
	policy Policy

	reqs    []device.Request // every enqueued request, arrival order
	removed []bool           // removed[i]: reqs[i] already dispatched
	live    int
	head    int // arrival cursor: everything before it is removed

	// C-LOOK batch index, valid while built and no Enqueue intervened.
	built   bool
	keys    []uint64 // live entries as cylinder<<32 | arrival, sorted
	scratch []uint64 // radix sort buffer, swapped with keys
	next    []int32  // skip pointers over removed key positions
}

// radixBits caps the digit width of the C-LOOK radix sort: at most 2048
// counters per pass, which stay in L1.
const radixBits = 11

// radixMin is the batch size from which build radix-sorts its keys;
// below it the fixed per-pass counter cost loses to slices.Sort.
const radixMin = 256

// NewScheduler wraps dev with the given policy.
func NewScheduler(dev *Device, policy Policy) *Scheduler {
	return &Scheduler{dev: dev, policy: policy}
}

// Rebind resets a (typically pooled) Scheduler for a fresh batch against
// dev, keeping all backing storage.
func (s *Scheduler) Rebind(dev *Device, policy Policy) {
	s.dev, s.policy = dev, policy
	s.reset()
}

func (s *Scheduler) reset() {
	s.reqs = s.reqs[:0]
	s.removed = s.removed[:0]
	s.live = 0
	s.head = 0
	s.built = false
}

// Enqueue adds a request to the pending queue.
func (s *Scheduler) Enqueue(r device.Request) {
	s.reqs = append(s.reqs, r)
	s.removed = append(s.removed, false)
	s.live++
	s.built = false
}

// Len reports the number of pending requests.
func (s *Scheduler) Len() int { return s.live }

// build constructs the sorted C-LOOK index over the live entries.
func (s *Scheduler) build() {
	s.keys = grow(s.keys, len(s.reqs))[:0]
	maxCyl := 0
	for i := range s.reqs {
		if s.removed[i] {
			continue
		}
		c := s.dev.Cylinder(s.reqs[i].Block)
		maxCyl = max(maxCyl, c)
		s.keys = append(s.keys, uint64(c)<<32|uint64(i))
	}
	if len(s.keys) < radixMin {
		slices.Sort(s.keys)
	} else {
		s.keys, s.scratch = radixSort(s.keys, grow(s.scratch, len(s.keys)), bits.Len(uint(maxCyl)))
	}
	s.next = grow(s.next, len(s.keys))
	for p := range s.next {
		s.next[p] = int32(p + 1)
	}
	s.built = true
}

// radixSort stably sorts keys by their cylinder half, of which only the
// low cylBits bits may be set, using buf as the other buffer. It returns
// the sorted slice and the spare one, each either keys or buf.
func radixSort(keys, buf []uint64, cylBits int) (sorted, spare []uint64) {
	if cylBits == 0 {
		return keys, buf
	}
	passes := (cylBits + radixBits - 1) / radixBits
	width := (cylBits + passes - 1) / passes
	mask := uint64(1)<<width - 1
	var count [1 << radixBits]int32
	for shift := 32; shift < 32+cylBits; shift += width {
		clear(count[:mask+1])
		for _, k := range keys {
			count[k>>shift&mask]++
		}
		var sum int32
		for b, c := range count[:mask+1] {
			count[b] = sum
			sum += c
		}
		for _, k := range keys {
			b := k >> shift & mask
			buf[count[b]] = k
			count[b]++
		}
		keys, buf = buf, keys
	}
	return keys, buf
}

// skipLive advances a key position past removed entries, following and
// path-compressing the skip pointers so repeated picks stay near O(1).
func (s *Scheduler) skipLive(p int) int {
	n := len(s.keys)
	p0 := p
	for p < n && s.removed[uint32(s.keys[p])] {
		p = int(s.next[p])
	}
	for p0 < p && p0 < n {
		nx := int(s.next[p0])
		s.next[p0] = int32(p)
		p0 = nx
	}
	return p
}

// pick returns the arrival index of the next request per the policy.
func (s *Scheduler) pick() int {
	switch s.policy {
	case SSTF:
		// Arrival-order scan, strict improvement only: ties go to the
		// earliest arrival, as they always have.
		cur := s.dev.cyl
		best, bestD := -1, int(^uint(0)>>1)
		for i := s.head; i < len(s.reqs); i++ {
			if s.removed[i] {
				continue
			}
			d := s.dev.Cylinder(s.reqs[i].Block) - cur
			if d < 0 {
				d = -d
			}
			if d < bestD {
				best, bestD = i, d
			}
		}
		return best
	case CLook:
		if !s.built {
			s.build()
		}
		p, _ := slices.BinarySearch(s.keys, uint64(s.dev.cyl)<<32)
		if p = s.skipLive(p); p >= len(s.keys) {
			p = s.skipLive(0) // wrap the sweep to the lowest pending cylinder
		}
		return int(uint32(s.keys[p]))
	default: // FCFS
		for s.removed[s.head] {
			s.head++
		}
		return s.head
	}
}

// Dispatch services the next request per the policy, starting at now.
func (s *Scheduler) Dispatch(now time.Duration) (device.Completion, bool, error) {
	if s.live == 0 {
		return device.Completion{}, false, nil
	}
	i := s.pick()
	s.removed[i] = true
	s.live--
	c, err := s.dev.Service(now, s.reqs[i])
	if s.live == 0 {
		s.reset() // batch drained: recycle the arrays for the next burst
	}
	if err != nil {
		return device.Completion{}, false, err
	}
	c.QueueDelay = now - c.Issued
	return c, true, nil
}

// DrainAll services every queued request back-to-back starting at now.
func (s *Scheduler) DrainAll(now time.Duration) ([]device.Completion, error) {
	var out []device.Completion
	t := now
	for s.live > 0 {
		c, ok, err := s.Dispatch(t)
		if err != nil {
			return out, err
		}
		if !ok {
			break
		}
		out = append(out, c)
		t = c.Finish
	}
	return out, nil
}

// grow resizes a reusable scratch slice to n without preserving contents.
func grow[T int32 | uint64](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
