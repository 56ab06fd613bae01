package ipv4

import (
	"encoding/binary"
)

// This file contains the hot-path routines the simulated forwarding plane
// uses on serialized packets: fixed-offset accessors, in-place TTL
// decrement, and in-place Record Route / Timestamp stamping with
// incremental checksum updates (RFC 1624). Routers never decode a full
// Header while forwarding.

// PacketSrc reads the source address of a serialized IPv4 packet.
func PacketSrc(pkt []byte) Addr { return Addr(binary.BigEndian.Uint32(pkt[12:])) }

// PacketDst reads the destination address of a serialized IPv4 packet.
func PacketDst(pkt []byte) Addr { return Addr(binary.BigEndian.Uint32(pkt[16:])) }

// PacketTTL reads the TTL of a serialized IPv4 packet.
func PacketTTL(pkt []byte) uint8 { return pkt[8] }

// PacketProto reads the protocol of a serialized IPv4 packet.
func PacketProto(pkt []byte) uint8 { return pkt[9] }

// PacketHeaderLen returns the header length of a serialized IPv4 packet.
func PacketHeaderLen(pkt []byte) int { return int(pkt[0]&0x0f) * 4 }

// DecrementTTL decrements the TTL in place with an incremental checksum
// update and reports the new TTL.
func DecrementTTL(pkt []byte) uint8 {
	oldWord := binary.BigEndian.Uint16(pkt[8:])
	pkt[8]--
	newWord := binary.BigEndian.Uint16(pkt[8:])
	updateChecksum16(pkt, oldWord, newWord)
	return pkt[8]
}

// SetChecksum recomputes and writes the header checksum of pkt.
func SetChecksum(pkt []byte) {
	hlen := PacketHeaderLen(pkt)
	binary.BigEndian.PutUint16(pkt[10:], HeaderChecksum(pkt[:hlen]))
}

// VerifyChecksum reports whether the header checksum of pkt is valid.
func VerifyChecksum(pkt []byte) bool {
	hlen := PacketHeaderLen(pkt)
	if hlen < HeaderLen || hlen > len(pkt) {
		return false
	}
	return HeaderChecksum(pkt[:hlen]) == binary.BigEndian.Uint16(pkt[10:])
}

// updateChecksum16 folds the replacement of a 16-bit word into the header
// checksum per RFC 1624: HC' = ~(~HC + ~m + m'). old and new must be the
// values of a word aligned to an even offset within the header.
func updateChecksum16(pkt []byte, old, new uint16) {
	hc := binary.BigEndian.Uint16(pkt[10:])
	sum := uint32(^hc) + uint32(^old) + uint32(new)
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	binary.BigEndian.PutUint16(pkt[10:], ^uint16(sum))
}

// patchHeaderBytes writes val into pkt[off:] (within the IP header, never
// overlapping the checksum field) and incrementally updates the header
// checksum. Option fields sit at odd offsets, so the patch is applied per
// aligned 16-bit word.
func patchHeaderBytes(pkt []byte, off int, val []byte) {
	start := off &^ 1
	end := (off + len(val) + 1) &^ 1
	for w := start; w < end; w += 2 {
		old := binary.BigEndian.Uint16(pkt[w:])
		for b := w; b < w+2 && b < len(pkt); b++ {
			if b >= off && b < off+len(val) {
				pkt[b] = val[b-off]
			}
		}
		updateChecksum16(pkt, old, binary.BigEndian.Uint16(pkt[w:]))
	}
}

// findOption locates an option of the given type in the options area of a
// serialized packet and returns its offset within pkt, or -1.
func findOption(pkt []byte, typ uint8) int {
	hlen := PacketHeaderLen(pkt)
	for i := HeaderLen; i < hlen; {
		switch pkt[i] {
		case OptEnd:
			return -1
		case OptNOP:
			i++
		default:
			if pkt[i] == typ {
				return i
			}
			if i+1 >= hlen || pkt[i+1] < 2 {
				return -1
			}
			i += int(pkt[i+1])
		}
	}
	return -1
}

// StampRecordRoute writes addr into the next free Record Route slot of a
// serialized packet, in place, advancing the pointer and fixing the header
// checksum. It reports whether a slot was available. Packets without an RR
// option, and full RR options, are left untouched — a full option is
// forwarded unchanged, which is exactly what lets reverse hops accumulate
// after the forward path used fewer than 9 slots (§2).
func StampRecordRoute(pkt []byte, addr Addr) bool {
	o := findOption(pkt, OptRecordRoute)
	if o < 0 {
		return false
	}
	optLen, ptr := int(pkt[o+1]), int(pkt[o+2])
	if ptr+3 > optLen {
		return false // full
	}
	var val [4]byte
	binary.BigEndian.PutUint32(val[:], uint32(addr))
	patchHeaderBytes(pkt, o+ptr-1, val[:])
	patchHeaderBytes(pkt, o+2, []byte{uint8(ptr + 4)})
	return true
}

// StampTimestamp implements tsprespec semantics on a serialized packet: if
// the prespecified address at the current pointer equals addr, the router
// writes ts and advances the pointer. "each IP address will record its
// timestamp only if previous addresses already recorded their timestamp"
// (§2). Reports whether a stamp was written.
func StampTimestamp(pkt []byte, addr Addr, ts uint32) bool {
	o := findOption(pkt, OptTimestamp)
	if o < 0 {
		return false
	}
	optLen, ptr := int(pkt[o+1]), int(pkt[o+2])
	if ptr+7 > optLen {
		return false // all pairs stamped
	}
	pos := o + ptr - 1
	if Addr(binary.BigEndian.Uint32(pkt[pos:])) != addr {
		return false
	}
	var val [4]byte
	binary.BigEndian.PutUint32(val[:], ts)
	patchHeaderBytes(pkt, pos+4, val[:])
	patchHeaderBytes(pkt, o+2, []byte{uint8(ptr + 8)})
	return true
}

// BuildEchoRequest serializes an ICMP echo request from src to dst with the
// given options. rrSlots of zero means no Record Route option; tsPairs nil
// means no Timestamp option.
func BuildEchoRequest(src, dst Addr, id, seq uint16, ttl uint8, rrSlots int, tsPairs []Addr) []byte {
	h := Header{
		TTL:      ttl,
		Protocol: ProtoICMP,
		ID:       id,
		Src:      src,
		Dst:      dst,
	}
	if rrSlots > 0 {
		h.HasRR = true
		h.RR.Slots = rrSlots
	}
	if len(tsPairs) > 0 {
		h.HasTS = true
		h.TS.N = len(tsPairs)
		for i, a := range tsPairs {
			h.TS.Pairs[i].Addr = a
		}
	}
	m := ICMP{Type: ICMPEchoRequest, ID: id, Seq: seq}
	pkt := h.Marshal(nil)
	pkt = m.Marshal(pkt)
	binary.BigEndian.PutUint16(pkt[2:], uint16(len(pkt)))
	SetChecksum(pkt)
	return pkt
}

// BuildEchoReply constructs the destination host's reply to a serialized
// echo request: source and destination are swapped, the TTL is reset, and —
// critically for Reverse Traceroute — the IP options are copied verbatim
// from the request, so a partially-filled Record Route option keeps
// accumulating addresses on the reverse path ("when the current hop replies
// ... it copies the IP options into the response", §2). replySrc is the
// address the destination answers from (usually the request destination,
// but non-stamping hosts may use an alias).
func BuildEchoReply(req []byte, replySrc Addr, ttl uint8) []byte {
	hlen := PacketHeaderLen(req)
	reply := make([]byte, len(req))
	copy(reply, req)
	binary.BigEndian.PutUint32(reply[12:], uint32(replySrc))
	binary.BigEndian.PutUint32(reply[16:], uint32(PacketSrc(req)))
	reply[8] = ttl
	// Flip the ICMP type from request to reply and fix its checksum.
	icmp := reply[hlen:]
	icmp[0] = ICMPEchoReply
	ck := icmpChecksum(icmp)
	binary.BigEndian.PutUint16(icmp[2:], ck)
	SetChecksum(reply)
	return reply
}

// BuildTimeExceeded constructs the ICMP time-exceeded error a router sends
// when TTL expires: addressed to the packet's source, originated from the
// router interface address from, embedding the original header + 8 payload
// bytes per RFC 792. Error messages carry no IP options — which is why
// traceroute reveals ingress interfaces while RR reveals other addresses
// (Fig 3).
func BuildTimeExceeded(orig []byte, from Addr, ttl uint8) []byte {
	hlen := PacketHeaderLen(orig)
	embed := hlen + 8
	if embed > len(orig) {
		embed = len(orig)
	}
	h := Header{
		TTL:      ttl,
		Protocol: ProtoICMP,
		Src:      from,
		Dst:      PacketSrc(orig),
	}
	m := ICMP{Type: ICMPTimeExceeded, Payload: orig[:embed]}
	pkt := h.Marshal(nil)
	pkt = m.Marshal(pkt)
	binary.BigEndian.PutUint16(pkt[2:], uint16(len(pkt)))
	SetChecksum(pkt)
	return pkt
}
