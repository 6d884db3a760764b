package codec

import (
	"encoding/binary"
	"hash/crc32"
)

// Frames give byte blocks an integrity envelope: a length prefix plus a
// CRC32-C checksum over the payload. The engine frames every shuffle block
// and the storage layer frames every flushed record chunk, so a flipped bit
// anywhere in transit or at rest surfaces as ErrCorrupt instead of being
// silently decoded into garbage records.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C checksum of b, the frame checksum function.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// PutFrame appends payload wrapped in a length+checksum frame:
// uvarint(len(payload)), 4-byte little-endian CRC32-C, payload bytes.
func (w *Writer) PutFrame(payload []byte) {
	w.PutUvarint(uint64(len(payload)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, Checksum(payload))
	w.buf = append(w.buf, payload...)
}

// Frame reads a frame written by PutFrame, verifies its checksum, and
// returns the payload. The slice aliases the reader's buffer. A bad length,
// truncated payload, or checksum mismatch panics with ErrCorrupt (convert
// with Catch).
func (r *Reader) Frame() []byte {
	n := int(r.Uvarint())
	if n < 0 || n > r.Remaining()-4 { // not r.off+4+n: a huge n wraps it negative
		r.corrupt()
	}
	sum := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	payload := r.b[r.off : r.off+n]
	if Checksum(payload) != sum {
		r.corrupt()
	}
	r.off += n
	return payload
}
