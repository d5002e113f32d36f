package protocol

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"dynacrowd/internal/core"
)

// Format selects the wire framing of a Reader or Writer.
type Format uint8

const (
	// FormatJSON is the default: newline-delimited JSON objects.
	FormatJSON Format = iota
	// FormatBinary is the negotiated compact framing:
	//
	//	[u32 LE frame length N][u8 type code][N-1 body bytes]
	//
	// The length covers the code byte plus the body. Hot message types
	// (slot, assign, payment, bid) use fixed little-endian layouts; all
	// other types carry their JSON object as the body, so the two
	// framings can never disagree about a cold message's content.
	//
	// Fixed layouts (all integers i64 LE, floats IEEE-754 bits LE):
	//
	//	slot:    slot(8)                              body =  8 bytes
	//	assign:  phone(8) task(8) slot(8)             body = 24 bytes
	//	payment: phone(8) amount(8) slot(8)           body = 24 bytes
	//	bid:     duration(8) cost(8) nameLen(u16 LE)  body = 18+nameLen
	//	         name(nameLen)
	FormatBinary
)

// Wire names used in hello/state negotiation (Message.Wire).
const (
	WireJSON   = "json"
	WireBinary = "binary"
)

// FormatByName maps a Message.Wire value to a Format. The empty string
// is the JSON default.
func FormatByName(name string) (Format, error) {
	switch name {
	case "", WireJSON:
		return FormatJSON, nil
	case WireBinary:
		return FormatBinary, nil
	default:
		return FormatJSON, fmt.Errorf("protocol: unknown wire format %q", name)
	}
}

func (f Format) String() string {
	switch f {
	case FormatJSON:
		return WireJSON
	case FormatBinary:
		return WireBinary
	default:
		return fmt.Sprintf("format(%d)", uint8(f))
	}
}

// MaxFrameBytes bounds a binary frame's length field (code byte + body),
// matching the JSON line bound so neither framing can smuggle a larger
// message than the other.
const MaxFrameBytes = MaxLineBytes

// Binary type codes, one per message type. Codes are wire contract:
// never renumber, only append. Codes 15–29 belonged to a retired
// inter-process vocabulary; decoders reject them, and new types must
// not reuse them.
const (
	codeHello    uint8 = 1
	codeState    uint8 = 2
	codeBid      uint8 = 3
	codeAck      uint8 = 4
	codeWelcome  uint8 = 5
	codeSlot     uint8 = 6
	codeAssign   uint8 = 7
	codePayment  uint8 = 8
	codeEnd      uint8 = 9
	codeRound    uint8 = 10
	codeResume   uint8 = 11
	codeError    uint8 = 12
	codeComplete uint8 = 13
	codeClawback uint8 = 14
)

var typeToCode = map[string]uint8{
	TypeHello:    codeHello,
	TypeState:    codeState,
	TypeBid:      codeBid,
	TypeAck:      codeAck,
	TypeWelcome:  codeWelcome,
	TypeSlot:     codeSlot,
	TypeAssign:   codeAssign,
	TypePayment:  codePayment,
	TypeEnd:      codeEnd,
	TypeRound:    codeRound,
	TypeResume:   codeResume,
	TypeError:    codeError,
	TypeComplete: codeComplete,
	TypeClawback: codeClawback,
}

var codeToType = func() [15]string {
	var t [15]string
	for name, code := range typeToCode {
		t[code] = name
	}
	return t
}()

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// appendBinaryFrame appends m's binary frame to dst. The length prefix
// is back-patched after the body is known.
func appendBinaryFrame(dst []byte, m *Message) ([]byte, error) {
	code, ok := typeToCode[m.Type]
	if !ok {
		return dst, fmt.Errorf("protocol: encode: unknown message type %q", m.Type)
	}
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0, code)
	switch m.Type {
	case TypeSlot:
		dst = appendU64(dst, uint64(m.Slot))
	case TypeAssign:
		dst = appendU64(dst, uint64(m.Phone))
		dst = appendU64(dst, uint64(m.Task))
		dst = appendU64(dst, uint64(m.Slot))
	case TypePayment:
		dst = appendU64(dst, uint64(m.Phone))
		dst = appendU64(dst, math.Float64bits(m.Amount))
		dst = appendU64(dst, uint64(m.Slot))
	case TypeBid:
		if len(m.Name) > MaxNameBytes {
			return dst[:lenAt], fmt.Errorf("protocol: encode bid: name %d bytes exceeds limit %d", len(m.Name), MaxNameBytes)
		}
		dst = appendU64(dst, uint64(m.Duration))
		dst = appendU64(dst, math.Float64bits(m.Cost))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Name)))
		dst = append(dst, m.Name...)
	default:
		b, err := json.Marshal(m)
		if err != nil {
			return dst[:lenAt], fmt.Errorf("protocol: encode %s: %w", m.Type, err)
		}
		dst = append(dst, b...)
	}
	n := len(dst) - lenAt - 4 // code byte + body
	if n > MaxFrameBytes {
		return dst[:lenAt], fmt.Errorf("protocol: encode %s: frame %d bytes exceeds %d", m.Type, n, MaxFrameBytes)
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(n))
	return dst, nil
}

// decodeBinaryPayload decodes a frame payload (code byte + body, length
// prefix already stripped) into *m, which the caller has zeroed. A cold
// message's JSON body goes through the Reader's JSON decoder.
func (r *Reader) decodeBinaryPayload(payload []byte, m *Message) error {
	code := payload[0]
	body := payload[1:]
	if int(code) >= len(codeToType) || codeToType[code] == "" {
		return fmt.Errorf("protocol: binary frame: unknown type code %d", code)
	}
	typ := codeToType[code]
	switch typ {
	case TypeSlot:
		if len(body) != 8 {
			return fmt.Errorf("protocol: slot frame body %d bytes, want 8", len(body))
		}
		m.Type = TypeSlot
		m.Slot = core.Slot(binary.LittleEndian.Uint64(body))
	case TypeAssign:
		if len(body) != 24 {
			return fmt.Errorf("protocol: assign frame body %d bytes, want 24", len(body))
		}
		m.Type = TypeAssign
		m.Phone = core.PhoneID(binary.LittleEndian.Uint64(body))
		m.Task = core.TaskID(binary.LittleEndian.Uint64(body[8:]))
		m.Slot = core.Slot(binary.LittleEndian.Uint64(body[16:]))
	case TypePayment:
		if len(body) != 24 {
			return fmt.Errorf("protocol: payment frame body %d bytes, want 24", len(body))
		}
		m.Type = TypePayment
		m.Phone = core.PhoneID(binary.LittleEndian.Uint64(body))
		m.Amount = math.Float64frombits(binary.LittleEndian.Uint64(body[8:]))
		m.Slot = core.Slot(binary.LittleEndian.Uint64(body[16:]))
	case TypeBid:
		if len(body) < 18 {
			return fmt.Errorf("protocol: bid frame body %d bytes, want >= 18", len(body))
		}
		nameLen := int(binary.LittleEndian.Uint16(body[16:]))
		if len(body) != 18+nameLen {
			return fmt.Errorf("protocol: bid frame body %d bytes, want %d for name length %d", len(body), 18+nameLen, nameLen)
		}
		m.Type = TypeBid
		m.Duration = core.Slot(binary.LittleEndian.Uint64(body))
		m.Cost = math.Float64frombits(binary.LittleEndian.Uint64(body[8:]))
		m.Name = string(body[18:])
	default:
		if err := r.decodeJSON(body, m); err != nil {
			return fmt.Errorf("protocol: %s frame: malformed JSON body: %w", typ, err)
		}
		if m.Type != typ {
			return fmt.Errorf("protocol: frame code says %s but JSON body says %q", typ, m.Type)
		}
	}
	return nil
}
