package protocol

import "hash/crc32"

// Chunk checksums ride the existing Args vector rather than a new wire
// field, so the frame layout (and every decoder) is unchanged:
//
//   - client SET (8 routing args): Args[ChecksumArgSet] = sum
//   - proxy DATA (stream.go): Args[DataArgSum] = sum, -1 when absent
//
// A chunk stored without a checksum simply skips verification — older
// peers and arg-free node frames keep working. The sum is CRC32-C
// (Castagnoli): hardware-accelerated on both amd64 and arm64, and
// strong enough to catch the bit flips and truncations the chaos plane
// injects (integrity against faults, not against an adversary).
//
// ChecksumArgSet is the index of the chunk checksum in a client SET
// frame's Args (after the 8 routing args; see proxy's setArg* consts).
const ChecksumArgSet = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C of a chunk payload as carried in the
// SET/DATA checksum arg. The int64 is always in [0, 1<<32): comparing
// against int64(uint32(x)) round-trips exactly.
func Checksum(b []byte) int64 {
	return int64(crc32.Checksum(b, crcTable))
}

// ChunkSum is the checksum actually carried in SET/DATA frames: the
// CRC32-C of the chunk payload chained over the object key and the
// chunk index. Binding the sum to (key, idx) — not just the bytes —
// means a bit flip that lands in a frame's key or index field (not the
// payload) still fails verification at the receiver: a SET garbled into
// storing under the wrong key or slot is rejected as transient instead
// of silently committing, and a mislabeled DATA chunk can never reach
// the erasure decoder in the wrong position.
func ChunkSum(key string, idx int, b []byte) int64 {
	// The key and index run through the table byte-wise: they are a few
	// dozen bytes at most, and crc32.Update's slice parameter escapes —
	// an allocation per frame the request plane's zero-alloc budget
	// cannot afford. The payload (the long part) still takes the
	// accelerated path.
	crc := ^uint32(0)
	for i := 0; i < len(key); i++ {
		crc = crcTable[byte(crc)^key[i]] ^ (crc >> 8)
	}
	for s := 0; s < 32; s += 8 {
		crc = crcTable[byte(crc)^byte(idx>>s)] ^ (crc >> 8)
	}
	return int64(crc32.Update(^crc, crcTable, b))
}
