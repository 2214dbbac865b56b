// Package nvram models the non-volatile memory hardware the paper builds
// on: a battery-backed store whose contents survive crashes (used by the
// recovery discussion of Section 4), the write buffer placed in front of a
// log-structured file system's disk (Section 3), and the buffered-and-
// sorted write analysis the paper cites from [20], in which 1000 buffered
// random I/Os (four megabytes of NVRAM) raise disk bandwidth utilization
// from a few percent to tens of percent.
package nvram

import (
	"errors"
	"fmt"
	"math"

	"nvramfs/internal/disk"
)

// Store is a client memory holding a volatile and a non-volatile region,
// for crash/recovery modeling: Crash clears the volatile region only. The
// paper's Section 4 points out that an NVRAM component must be removable so
// a crashed client's dirty data can be recovered from another machine;
// Detach models that.
type Store struct {
	volatile    map[string][]byte
	nonVolatile map[string][]byte
	// Batteries is the number of lithium batteries backing the NVRAM
	// (Table 1 components carry one to three; most have at least one
	// spare).
	Batteries int
	detached  bool
	// img, when non-nil, backs the non-volatile region with a durable
	// on-disk image (OpenDurableStore): every PutNonVolatile commits a
	// record before returning, and battery death clears the image too.
	img *Image
}

// NewStore returns a store backed by the given number of batteries.
func NewStore(batteries int) *Store {
	return &Store{
		volatile:    make(map[string][]byte),
		nonVolatile: make(map[string][]byte),
		Batteries:   batteries,
	}
}

// OpenDurableStore returns a store whose non-volatile region lives in the
// durable image at path: contents put before a previous crash are already
// present, and every PutNonVolatile is committed to the file before it
// returns. The second result describes what recovery found.
func OpenDurableStore(path string, batteries int, opts ImageOptions) (*Store, *ImageRecovery, error) {
	img, info, err := OpenImage(path, opts)
	if err != nil {
		return nil, nil, err
	}
	s := NewStore(batteries)
	s.img = img
	img.ForEach(NSStore, func(key string, payload []byte) {
		s.nonVolatile[key] = payload
	})
	return s, info, nil
}

// Image returns the durable image backing the store, or nil for the
// in-memory model.
func (s *Store) Image() *Image { return s.img }

// Close releases the backing image, if any. In-memory stores are no-ops.
func (s *Store) Close() error {
	if s.img == nil {
		return nil
	}
	err := s.img.Close()
	s.img = nil
	return err
}

// errDetached is returned when using a store after Detach.
var errDetached = errors.New("nvram: store is detached")

// PutVolatile stores data in the volatile region.
func (s *Store) PutVolatile(key string, data []byte) error {
	if s.detached {
		return errDetached
	}
	s.volatile[key] = append([]byte(nil), data...)
	return nil
}

// PutNonVolatile stores data in the battery-backed region. For durable
// stores the record is committed to the image file before returning.
func (s *Store) PutNonVolatile(key string, data []byte) error {
	if s.detached {
		return errDetached
	}
	if s.Batteries <= 0 {
		return errors.New("nvram: no working battery; contents would not survive")
	}
	if s.img != nil {
		if err := s.img.Put(NSStore, key, data); err != nil {
			return err
		}
	}
	s.nonVolatile[key] = append([]byte(nil), data...)
	return nil
}

// Get reads a key from either region; non-volatile wins on conflicts. A
// detached store refuses reads — the board is physically gone, matching
// the errDetached contract the Put methods enforce — and the returned
// slice is a copy, so callers cannot mutate "non-volatile" contents in
// place without going through a Put.
func (s *Store) Get(key string) ([]byte, bool) {
	if s.detached {
		return nil, false
	}
	if d, ok := s.nonVolatile[key]; ok {
		return append([]byte(nil), d...), true
	}
	if d, ok := s.volatile[key]; ok {
		return append([]byte(nil), d...), true
	}
	return nil, false
}

// Crash models a machine failure: the volatile region is lost; the
// battery-backed region survives — but only if a battery is actually
// holding it up. A store whose last battery already died loses the
// non-volatile region too (consistent with PutNonVolatile's refusal to
// accept data such a store could not keep). Crashing a detached store is
// a no-op: there is no machine around the board to fail.
func (s *Store) Crash() {
	if s.detached {
		return
	}
	s.volatile = make(map[string][]byte)
	if s.Batteries <= 0 {
		s.loseNonVolatile()
	}
}

// FailBattery removes one battery; when the last fails, the non-volatile
// region is lost too (Table 1's components carry spares for this reason).
func (s *Store) FailBattery() {
	if s.Batteries > 0 {
		s.Batteries--
	}
	if s.Batteries == 0 {
		s.loseNonVolatile()
	}
}

func (s *Store) loseNonVolatile() {
	s.nonVolatile = make(map[string][]byte)
	if s.img != nil {
		s.img.ClearNamespace(NSStore)
	}
}

// Detach removes the NVRAM component from a (crashed) client, returning a
// store containing only the surviving non-volatile contents, which can be
// attached to another client to retrieve its data. The original store
// becomes unusable; for durable stores the backing image moves with the
// board.
func (s *Store) Detach() *Store {
	moved := &Store{
		volatile:    make(map[string][]byte),
		nonVolatile: s.nonVolatile,
		Batteries:   s.Batteries,
		img:         s.img,
	}
	s.nonVolatile = nil
	s.img = nil
	s.detached = true
	return moved
}

// WriteBuffer is a byte-counting model of the non-volatile write buffer a
// server places in front of its disk: fsync'd data parks here (already
// permanent, so the fsync completes without a disk access) until a full
// segment's worth accumulates.
type WriteBuffer struct {
	capacity int64
	used     int64
}

// NewWriteBuffer returns a buffer of the given capacity in bytes.
func NewWriteBuffer(capacity int64) *WriteBuffer {
	if capacity < 0 {
		capacity = 0
	}
	return &WriteBuffer{capacity: capacity}
}

// Capacity returns the buffer size in bytes.
func (b *WriteBuffer) Capacity() int64 { return b.capacity }

// Used returns the buffered byte count.
func (b *WriteBuffer) Used() int64 { return b.used }

// Free returns the remaining capacity.
func (b *WriteBuffer) Free() int64 { return b.capacity - b.used }

// Add buffers n bytes, returning how many fit.
func (b *WriteBuffer) Add(n int64) int64 {
	if n < 0 {
		return 0
	}
	if n > b.Free() {
		n = b.Free()
	}
	b.used += n
	return n
}

// Drain removes up to n buffered bytes (they were written to disk) and
// returns how many were removed.
func (b *WriteBuffer) Drain(n int64) int64 {
	if n < 0 {
		return 0
	}
	if n > b.used {
		n = b.used
	}
	b.used -= n
	return n
}

func (b *WriteBuffer) String() string {
	return fmt.Sprintf("nvram.WriteBuffer{%d/%d}", b.used, b.capacity)
}

// SortedBufferUtilization estimates the disk bandwidth utilization achieved
// when nWrites random writes of writeSize bytes each are buffered in NVRAM,
// sorted, and issued in disk order — the analysis the paper cites from
// [20]: writing dirty data randomly uses only ~7% of disk bandwidth, while
// buffering and sorting 1000 I/Os (four megabytes of NVRAM) reaches ~40%.
//
// Model: issuing writes in sorted order divides the positioning cost by
// ln(n) — scheduling gains grow logarithmically with queue depth, a
// standard result for shortest-seek-first service of uniformly distributed
// requests. With n = 1 this degenerates to the random-write utilization.
func SortedBufferUtilization(p disk.Params, nWrites int, writeSize int64) float64 {
	if nWrites < 1 {
		nWrites = 1
	}
	transfer := p.TransferTime(writeSize)
	position := p.PositioningTime()
	gain := math.Log(float64(nWrites))
	if gain < 1 {
		gain = 1
	}
	effPosition := float64(position) / gain
	total := effPosition + float64(transfer)
	if total <= 0 {
		return 0
	}
	return float64(transfer) / total
}

// BufferForWrites returns the NVRAM bytes needed to buffer n writes of the
// given size (the "1000 I/O's, requiring four megabytes of NVRAM" figure).
func BufferForWrites(n int, writeSize int64) int64 {
	return int64(n) * writeSize
}
