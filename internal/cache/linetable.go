package cache

import "math/bits"

// lineTable maps line-aligned addresses to int64 values: the MSHR records
// (line -> fill completion cycle) and the integrity oracle's store versions.
// It is open-addressed with linear probing and backward-shift deletion, so
// there are no tombstones and a probe stops at the first empty slot. Empty
// slots hold noLine, which no line-aligned address can equal (lines are at
// least 2 bytes, so their low bit is clear). The table grows at half load
// and never shrinks; clear keeps its capacity for reuse. Nothing observes
// its slot order.
type lineTable struct {
	keys  []uint64
	vals  []int64
	n     int
	shift uint // 64 - log2(len(keys))
}

const noLine = ^uint64(0)

func (t *lineTable) home(key uint64) int {
	return int(key * 0x9E3779B97F4A7C15 >> t.shift) // Fibonacci hashing
}

// find returns key's slot, or -1 when absent.
func (t *lineTable) find(key uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.keys) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case key:
			return i
		case noLine:
			return -1
		}
	}
}

// get returns key's value, or zero when absent.
func (t *lineTable) get(key uint64) int64 {
	if i := t.find(key); i >= 0 {
		return t.vals[i]
	}
	return 0
}

func (t *lineTable) put(key uint64, v int64) {
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	mask := len(t.keys) - 1
	i := t.home(key)
	for t.keys[i] != key && t.keys[i] != noLine {
		i = (i + 1) & mask
	}
	if t.keys[i] == noLine {
		t.keys[i] = key
		t.n++
	}
	t.vals[i] = v
}

func (t *lineTable) grow() {
	keys, vals := t.keys, t.vals
	size := max(16, 2*len(keys))
	t.keys, t.vals = make([]uint64, size), make([]int64, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for i := range t.keys {
		t.keys[i] = noLine
	}
	for i, k := range keys {
		if k != noLine {
			t.put(k, vals[i])
		}
	}
}

// deleteAt empties slot i, shifting later entries of its probe run back so
// every remaining key stays reachable from its home slot.
func (t *lineTable) deleteAt(i int) {
	mask := len(t.keys) - 1
	for j := (i + 1) & mask; t.keys[j] != noLine; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-t.home(t.keys[j]))&mask < (j-i)&mask {
			continue
		}
		t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
		i = j
	}
	t.keys[i] = noLine
	t.n--
}

func (t *lineTable) clear() {
	if t.n == 0 {
		return
	}
	for i := range t.keys {
		t.keys[i] = noLine
	}
	t.n = 0
}
