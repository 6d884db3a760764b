package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"st4ml/internal/codec"
	"st4ml/internal/stdata"
)

// This file is the /subquery reply's wire form: one length- and
// CRC-framed binary frame, written by the shard and read by the router.
// The records cross the hop as the bytes the shard's encoder wrote,
// behind a table of their lengths, so the router cuts each record out of
// the body without looking at its bytes: the checksum already covers
// them, and the encoder is held to json.Valid on its own (FuzzRecordJSON).
//
//	"STSQ" | version (1 byte) | u32 payload length | u32 CRC32-C of payload | payload
//
// All u32s are little-endian. The payload is:
//
//	uvarint envelope length | envelope (encoding/json: shard, gen, count,
//	cache, elapsed_ms, approx, spans)
//	uvarint part count | per part: uvarint id, uvarint selected,
//	uvarint record count, one uvarint length per record
//	the record bytes, concatenated in part order
//
// Every varint must be minimal, so a part table has one spelling.

// subReplyContentType is the content type of a /subquery reply frame.
const subReplyContentType = "application/x-st4ml-subreply"

const (
	frameMagic   = "STSQ"
	frameVersion = 1
	frameHeader  = len(frameMagic) + 1 + 4 + 4
)

// appendFrame appends the reply as one sub-reply frame.
func (r SubQueryResponse) appendFrame(dst []byte) ([]byte, error) {
	dst = slices.Grow(dst, frameHeader+envelopeBytes+frameRecordBytes(r.Parts))
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	envAt := len(dst)
	dst, err := appendValue(dst, r) // the envelope: Parts is not JSON
	if err != nil {
		return dst[:start], err
	}
	var n [binary.MaxVarintLen64]byte
	dst = slices.Insert(dst, envAt, n[:binary.PutUvarint(n[:], uint64(len(dst)-envAt))]...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Parts)))
	for _, p := range r.Parts {
		dst = binary.AppendUvarint(dst, uint64(p.ID))
		dst = binary.AppendUvarint(dst, uint64(p.Selected))
		dst = binary.AppendUvarint(dst, uint64(len(p.Records)))
		for _, rec := range p.Records {
			dst = binary.AppendUvarint(dst, uint64(len(rec)))
		}
	}
	for _, p := range r.Parts {
		for _, rec := range p.Records {
			dst = append(dst, rec...)
		}
	}
	payload := dst[start+frameHeader:]
	if len(payload) > math.MaxUint32 {
		return dst[:start], fmt.Errorf("serve: sub-reply of %d bytes does not fit a frame", len(payload))
	}
	h := dst[start : start+frameHeader]
	copy(h, frameMagic)
	h[len(frameMagic)] = frameVersion
	binary.LittleEndian.PutUint32(h[5:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[9:], codec.Checksum(payload))
	return dst, nil
}

// frameRecordBytes is room for parts' length table and record bytes: a
// record under 16 KiB takes two bytes or fewer of table.
func frameRecordBytes(parts []stdata.PartResult) int {
	n := binary.MaxVarintLen64
	for _, p := range parts {
		n += 3 * binary.MaxVarintLen64
		for _, rec := range p.Records {
			n += len(rec) + 2
		}
	}
	return n
}

// ParseSubQueryFrame decodes a /subquery reply frame. It checks the magic,
// version, exact length and checksum before it reads any field, then
// bounds every count by the bytes left. Each record is a sub-slice of
// body, not a copy, so the result pins body for as long as it holds
// records; the records' bytes are not re-validated. Parts and records
// that are empty decode as nil. Any malformed frame is an error wrapping
// codec.ErrCorrupt, never a panic.
func ParseSubQueryFrame(body []byte) (SubQueryResponse, error) {
	if len(body) > 0 && body[0] == '{' {
		return SubQueryResponse{}, fmt.Errorf("serve: sub-reply is JSON, not a frame: the shard is likely older than this router: %w",
			codec.ErrCorrupt{})
	}
	if len(body) < frameHeader || string(body[:len(frameMagic)]) != frameMagic {
		return SubQueryResponse{}, frameCorrupt(0, "no frame header")
	}
	if v := body[len(frameMagic)]; v != frameVersion {
		return SubQueryResponse{}, fmt.Errorf("serve: sub-reply frame version %d, this router reads %d: %w",
			v, frameVersion, codec.ErrCorrupt{Off: len(frameMagic)})
	}
	payload := body[frameHeader:]
	if n := binary.LittleEndian.Uint32(body[5:]); uint64(n) != uint64(len(payload)) {
		return SubQueryResponse{}, frameCorrupt(5, fmt.Sprintf("length %d, %d bytes follow the header", n, len(payload)))
	}
	if binary.LittleEndian.Uint32(body[9:]) != codec.Checksum(payload) {
		return SubQueryResponse{}, frameCorrupt(9, "checksum mismatch")
	}

	d := frameReader{b: body, off: frameHeader}
	n := d.count(1)
	env := body[d.off : d.off+n]
	d.off += n
	var out SubQueryResponse
	if d.err == nil {
		if err := json.Unmarshal(env, &out); err != nil {
			return SubQueryResponse{}, fmt.Errorf("serve: sub-reply frame envelope: %v: %w", err, codec.ErrCorrupt{Off: d.off})
		}
	}

	// The part table is walked twice: once to bound and count the
	// records, so one slice holds all their headers, and once to cut them.
	// A part takes at least three table bytes and a record one table byte
	// and one record byte.
	nparts := d.count(3)
	table, total, size := d.off, 0, 0
	for k := 0; k < nparts && d.err == nil; k++ {
		d.uvarint()
		d.uvarint()
		n := d.count(2)
		for j := 0; j < n && d.err == nil; j++ {
			l := d.uvarint()
			if l == 0 || l > uint64(len(body)-d.off) {
				d.fail("record length out of range")
			}
			size += int(l)
			if size > len(body)-d.off {
				d.fail("records overrun the frame")
			}
		}
		total += n
	}
	if d.err == nil && size != len(body)-d.off {
		d.fail(fmt.Sprintf("%d record bytes, %d follow the table", size, len(body)-d.off))
	}
	if d.err != nil {
		return SubQueryResponse{}, d.err
	}
	if nparts > 0 {
		out.Parts = make([]stdata.PartResult, nparts)
	}
	recs := make([]json.RawMessage, total)
	at, ri := d.off, 0
	d.off = table
	for k := range out.Parts {
		p := &out.Parts[k]
		p.ID, p.Selected = int(d.uvarint()), int64(d.uvarint())
		n := int(d.uvarint())
		for j := 0; j < n; j++ {
			end := at + int(d.uvarint())
			recs[ri+j] = body[at:end:end]
			at = end
		}
		if n > 0 {
			p.Records = recs[ri : ri+n : ri+n]
		}
		ri += n
	}
	return out, nil
}

// frameReader reads a frame's varints from b at off. The first failure
// sticks in err, and every read after it returns 0.
type frameReader struct {
	b   []byte
	off int
	err error
}

func frameCorrupt(off int, what string) error {
	return fmt.Errorf("serve: sub-reply frame: %s: %w", what, codec.ErrCorrupt{Off: off})
}

func (d *frameReader) fail(what string) {
	if d.err == nil {
		d.err = frameCorrupt(d.off, what)
	}
}

// uvarint reads one minimal uvarint.
func (d *frameReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 || (n > 1 && d.b[d.off+n-1] == 0) {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

// count reads a count of items that take at least per bytes each, bounded
// by the bytes left.
func (d *frameReader) count(per int) int {
	v := d.uvarint()
	if v > uint64((len(d.b)-d.off)/per) {
		d.fail(fmt.Sprintf("count %d past the frame", v))
		return 0
	}
	return int(v)
}
