package ipv4

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Protocol numbers used by the simulator.
const (
	ProtoICMP = 1
)

// IPv4 option types (copied flag | class | number per RFC 791).
const (
	OptEnd         = 0  // end of option list
	OptNOP         = 1  // no-operation (padding)
	OptRecordRoute = 7  // record route
	OptTimestamp   = 68 // internet timestamp
)

// RRSlots is the number of address slots a maximally-sized Record Route
// option carries: the 40-byte option area holds type+len+ptr (3 bytes) plus
// nine 4-byte addresses, "which has space for up to nine addresses" (§2).
const RRSlots = 9

// TSSlots is the number of ⟨address, timestamp⟩ pairs a prespecified
// Timestamp option carries. RFC 791 allows the sender to specify up to four.
const TSSlots = 4

// TSFlagPrespec is the Timestamp option flag requesting timestamps only
// from prespecified addresses (tsprespec, the mode Reverse Traceroute uses).
const TSFlagPrespec = 3

const (
	// HeaderLen is the length of an IPv4 header without options.
	HeaderLen = 20
	// MaxOptionsLen is the size of the IPv4 options area.
	MaxOptionsLen = 40
	// MaxHeaderLen is the maximum IPv4 header length.
	MaxHeaderLen = HeaderLen + MaxOptionsLen
)

var (
	ErrTruncated     = errors.New("ipv4: truncated packet")
	ErrBadVersion    = errors.New("ipv4: not an IPv4 packet")
	ErrBadHeaderLen  = errors.New("ipv4: bad header length")
	ErrBadOption     = errors.New("ipv4: malformed option")
	ErrOptionMissing = errors.New("ipv4: option not present")
)

// RecordRoute is a decoded Record Route option. Routes[:N] holds the
// addresses recorded so far.
type RecordRoute struct {
	Routes [RRSlots]Addr
	N      int // number of recorded addresses
	Slots  int // total slots allocated in the option
}

// Full reports whether every allocated slot has been stamped.
func (rr *RecordRoute) Full() bool { return rr.N >= rr.Slots }

// Recorded returns the recorded addresses as a slice aliasing rr.
func (rr *RecordRoute) Recorded() []Addr { return rr.Routes[:rr.N] }

// TimestampPair is one ⟨prespecified address, timestamp⟩ entry of a
// tsprespec option.
type TimestampPair struct {
	Addr    Addr
	Stamp   uint32
	Stamped bool
}

// Timestamp is a decoded prespecified Timestamp option.
type Timestamp struct {
	Pairs [TSSlots]TimestampPair
	N     int // number of prespecified pairs present
}

// Header is a decoded IPv4 header. Decoding writes into the receiver
// without allocating, in the style of gopacket's DecodingLayer, so a single
// Header can be reused across millions of packets.
type Header struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src, Dst Addr

	HasRR bool
	RR    RecordRoute
	HasTS bool
	TS    Timestamp
}

// optionsLen computes the padded length of the options area for the
// configured options.
func (h *Header) optionsLen() int {
	n := 0
	if h.HasRR {
		n += 3 + 4*h.rrSlots()
	}
	if h.HasTS {
		n += 4 + 8*h.TS.N
	}
	// Pad to a multiple of 4 with NOPs.
	return (n + 3) &^ 3
}

func (h *Header) rrSlots() int {
	if h.RR.Slots == 0 {
		return RRSlots
	}
	return h.RR.Slots
}

// Len returns the encoded header length.
func (h *Header) Len() int { return HeaderLen + h.optionsLen() }

// Marshal appends the encoded header to b and returns the result. The
// caller appends the payload afterwards, writes the total length, and calls
// SetChecksum (BuildEchoRequest and friends do all three). Marshal panics
// if the configured options exceed the 40-byte option area — RR with 9
// slots and a 4-pair tsprespec option cannot coexist, matching real IPv4.
func (h *Header) Marshal(b []byte) []byte {
	if h.optionsLen() > MaxOptionsLen {
		panic("ipv4: options exceed 40-byte option area")
	}
	hlen := h.Len()
	off := len(b)
	b = append(b, make([]byte, hlen)...)
	hdr := b[off : off+hlen]
	hdr[0] = 4<<4 | uint8(hlen/4)
	hdr[1] = h.TOS
	binary.BigEndian.PutUint16(hdr[2:], h.TotalLen)
	binary.BigEndian.PutUint16(hdr[4:], h.ID)
	// flags+frag offset zero: the simulator never fragments.
	hdr[8] = h.TTL
	hdr[9] = h.Protocol
	binary.BigEndian.PutUint32(hdr[12:], uint32(h.Src))
	binary.BigEndian.PutUint32(hdr[16:], uint32(h.Dst))
	p := 20
	if h.HasRR {
		slots := h.rrSlots()
		optLen := 3 + 4*slots
		hdr[p] = OptRecordRoute
		hdr[p+1] = uint8(optLen)
		hdr[p+2] = uint8(4 + 4*h.RR.N) // pointer: 1-indexed first free octet
		for i := 0; i < h.RR.N; i++ {
			binary.BigEndian.PutUint32(hdr[p+3+4*i:], uint32(h.RR.Routes[i]))
		}
		p += optLen
	}
	if h.HasTS {
		optLen := 4 + 8*h.TS.N
		hdr[p] = OptTimestamp
		hdr[p+1] = uint8(optLen)
		ptr := 5
		for i := 0; i < h.TS.N; i++ {
			if h.TS.Pairs[i].Stamped {
				ptr = 5 + 8*(i+1)
			}
		}
		hdr[p+2] = uint8(ptr)
		hdr[p+3] = TSFlagPrespec // overflow=0, flag=3
		for i := 0; i < h.TS.N; i++ {
			binary.BigEndian.PutUint32(hdr[p+4+8*i:], uint32(h.TS.Pairs[i].Addr))
			binary.BigEndian.PutUint32(hdr[p+8+8*i:], h.TS.Pairs[i].Stamp)
		}
		p += optLen
	}
	for ; p < hlen; p++ {
		hdr[p] = OptNOP
	}
	return b
}

// Decode parses an IPv4 header from data into h, returning the payload
// (aliasing data) after the header. h is fully overwritten; no memory is
// retained beyond the call except the returned payload slice.
func (h *Header) Decode(data []byte) (payload []byte, err error) {
	if len(data) < HeaderLen {
		return nil, ErrTruncated
	}
	if data[0]>>4 != 4 {
		return nil, ErrBadVersion
	}
	hlen := int(data[0]&0x0f) * 4
	if hlen < HeaderLen || hlen > len(data) {
		return nil, ErrBadHeaderLen
	}
	h.TOS = data[1]
	h.TotalLen = binary.BigEndian.Uint16(data[2:])
	h.ID = binary.BigEndian.Uint16(data[4:])
	h.TTL = data[8]
	h.Protocol = data[9]
	h.Checksum = binary.BigEndian.Uint16(data[10:])
	h.Src = Addr(binary.BigEndian.Uint32(data[12:]))
	h.Dst = Addr(binary.BigEndian.Uint32(data[16:]))
	h.HasRR, h.HasTS = false, false
	h.RR = RecordRoute{}
	h.TS = Timestamp{}
	if err := h.decodeOptions(data[HeaderLen:hlen]); err != nil {
		return nil, err
	}
	if int(h.TotalLen) >= hlen && int(h.TotalLen) <= len(data) {
		return data[hlen:h.TotalLen], nil
	}
	return data[hlen:], nil
}

func (h *Header) decodeOptions(opts []byte) error {
	for i := 0; i < len(opts); {
		switch opts[i] {
		case OptEnd:
			return nil
		case OptNOP:
			i++
		case OptRecordRoute:
			if i+3 > len(opts) {
				return ErrBadOption
			}
			optLen := int(opts[i+1])
			ptr := int(opts[i+2])
			if optLen < 3 || i+optLen > len(opts) || (optLen-3)%4 != 0 || ptr < 4 {
				return ErrBadOption
			}
			h.HasRR = true
			h.RR.Slots = (optLen - 3) / 4
			if h.RR.Slots > RRSlots {
				return ErrBadOption
			}
			h.RR.N = (ptr - 4) / 4
			if h.RR.N > h.RR.Slots {
				return ErrBadOption
			}
			for j := 0; j < h.RR.N; j++ {
				h.RR.Routes[j] = Addr(binary.BigEndian.Uint32(opts[i+3+4*j:]))
			}
			i += optLen
		case OptTimestamp:
			if i+4 > len(opts) {
				return ErrBadOption
			}
			optLen := int(opts[i+1])
			ptr := int(opts[i+2])
			flag := opts[i+3] & 0x0f
			if optLen < 4 || i+optLen > len(opts) || flag != TSFlagPrespec || (optLen-4)%8 != 0 {
				return ErrBadOption
			}
			h.HasTS = true
			h.TS.N = (optLen - 4) / 8
			if h.TS.N > TSSlots {
				return ErrBadOption
			}
			stamped := (ptr - 5) / 8
			for j := 0; j < h.TS.N; j++ {
				h.TS.Pairs[j].Addr = Addr(binary.BigEndian.Uint32(opts[i+4+8*j:]))
				h.TS.Pairs[j].Stamp = binary.BigEndian.Uint32(opts[i+8+8*j:])
				h.TS.Pairs[j].Stamped = j < stamped
			}
			i += optLen
		default:
			// Unknown option: honor its length byte if plausible, else bail.
			if i+2 > len(opts) || opts[i+1] < 2 || i+int(opts[i+1]) > len(opts) {
				return ErrBadOption
			}
			i += int(opts[i+1])
		}
	}
	return nil
}

// Checksum computes the IPv4 header checksum over hdr (whose checksum
// field need not be zeroed; it is skipped).
func HeaderChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		if i == 10 {
			continue // checksum field
		}
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// String summarizes the header for diagnostics.
func (h *Header) String() string {
	s := fmt.Sprintf("IPv4 %s -> %s ttl=%d proto=%d", h.Src, h.Dst, h.TTL, h.Protocol)
	if h.HasRR {
		s += fmt.Sprintf(" rr=%d/%d", h.RR.N, h.RR.Slots)
	}
	if h.HasTS {
		s += fmt.Sprintf(" ts=%d", h.TS.N)
	}
	return s
}
