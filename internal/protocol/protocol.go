// Package protocol defines the wire format between the crowdsourcing
// platform server and smartphone agents. Two framings share one flat
// Message vocabulary:
//
//   - JSON (the default): newline-delimited JSON objects, trivial to
//     debug with netcat, strict about unknown fields and types.
//   - Binary (negotiated): length-prefixed frames with fixed layouts
//     for the hot messages (slot, assign, payment, bid), built for the
//     platform's per-tick fan-out to very large agent populations. See
//     binary.go for the layout and docs/PLATFORM.md for the spec.
//
// A connection always starts in JSON. An agent opts into binary by
// sending hello{wire:"binary"}; the platform's state reply echoes
// wire:"binary" and is the last JSON message either side sends — both
// directions switch immediately after it. An agent that requests the
// upgrade must not send anything else until the state reply arrives.
//
// Conversation (agent-initiated messages left, platform replies right):
//
//	hello{wire?}           -> state{slot, slots, value, wire?, budget?}
//	bid{name, duration,    -> ack (bid queued for the next slot tick)
//	    cost}              -> welcome{phone, slot(=arrival), departure}
//	                          ... at the next slot tick, or error{...} if a
//	                          budgeted round has already committed its full
//	                          budget (the bid could never be paid)
//	                       <- slot{slot}           every tick
//	                       <- assign{phone, task, slot}  if the bid wins
//	                       <- payment{phone, amount, slot} at departure
//	                       <- end{welfare, payments, round, budget?} after
//	                          each round's last slot
//	                       <- round{round} when a multi-round platform opens
//	                          the next round (agents may bid again)
//	resume{phone, round}   -> replay of the phone's standing: welcome, its
//	                          assignment, its payment or clawback if any,
//	                          and end if the round is over — so an agent
//	                          that lost its TCP connection mid-round
//	                          re-attaches to its admitted bid and still
//	                          learns its critical-value payment (or that it
//	                          was defaulted). A resume naming a finished
//	                          round is answered with round{current} instead
//	                          (the phone-ID namespace restarted; bid again).
//	complete{phone, task,  -> ack, or error{...} naming the typed core
//	         round}           rejection (already completed / not assigned)
//	                          without disturbing the round. Only meaningful
//	                          when the platform runs a completion deadline;
//	                          a winner that never completes is defaulted
//	                          when its deadline lapses:
//	                       <- clawback{phone, amount, slot} payment revoked
//	                          (amount 0 if none had been issued)
//
// Bids carry a duration (number of slots the phone stays active,
// starting at the slot in which the platform admits the bid) rather than
// an absolute departure slot, so agents cannot race the slot clock into
// claiming an earlier arrival — the no-early-arrival constraint is
// enforced by construction, mirroring core.OnlineAuction.
package protocol

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"unicode/utf8"

	"dynacrowd/internal/core"
)

// Message types.
const (
	TypeHello   = "hello"
	TypeState   = "state"
	TypeBid     = "bid"
	TypeAck     = "ack"
	TypeWelcome = "welcome"
	TypeSlot    = "slot"
	TypeAssign  = "assign"
	TypePayment = "payment"
	TypeEnd     = "end"
	TypeRound   = "round"
	TypeResume  = "resume"
	TypeError   = "error"
	// TypeComplete is an agent's report that it performed its assigned
	// task; TypeClawback is the platform's notice that a defaulted
	// winner's payment is revoked.
	TypeComplete = "complete"
	TypeClawback = "clawback"
)

// MaxLineBytes bounds a single wire message; longer lines abort the
// connection (defense against unframed garbage). Binary frames obey the
// same bound (MaxFrameBytes).
const MaxLineBytes = 64 * 1024

// MaxNameBytes bounds a bid's human-readable label. The whole-message
// bound alone would let one field monopolize the frame; a kilobyte-scale
// name is always hostile.
const MaxNameBytes = 4096

// MaxDuration bounds a bid's claimed duration. The platform clamps
// departures to the round length anyway; the bound exists so that
// arrival+duration arithmetic can never overflow the Slot integer and
// slip past that clamp as a negative departure.
const MaxDuration = core.Slot(1) << 30

// Message is the single wire envelope. Which fields are meaningful
// depends on Type; the zero value of unused fields is omitted.
type Message struct {
	Type string `json:"type"`

	// Agent fields.
	Name     string    `json:"name,omitempty"`     // bid: human-readable agent label
	Duration core.Slot `json:"duration,omitempty"` // bid: active slots from admission
	Cost     float64   `json:"cost,omitempty"`     // bid: claimed per-task cost

	// Platform fields (Phone and Round also appear on the agent-sent
	// resume message, naming the admitted bid to re-attach).
	Phone     core.PhoneID `json:"phone,omitempty"`     // welcome/assign/payment/resume
	Slot      core.Slot    `json:"slot,omitempty"`      // state/welcome/slot/assign/payment
	Slots     core.Slot    `json:"slots,omitempty"`     // state: round length
	Value     float64      `json:"value,omitempty"`     // state: per-task value ν
	Departure core.Slot    `json:"departure,omitempty"` // welcome: admitted window end
	Task      core.TaskID  `json:"task,omitempty"`      // assign
	Amount    float64      `json:"amount,omitempty"`    // payment
	Welfare   float64      `json:"welfare,omitempty"`   // end
	Payments  float64      `json:"payments,omitempty"`  // end: total paid
	Budget    float64      `json:"budget,omitempty"`    // state/end: round budget B (0: unbudgeted)
	Round     int          `json:"round,omitempty"`     // state/welcome/end/round/resume: round number (1-based)
	Error     string       `json:"error,omitempty"`     // error
	// Wire negotiates the framing: on hello it is the format the agent
	// requests ("json", "binary", or empty for the JSON default); on
	// state it is the format in effect immediately after that reply.
	Wire string `json:"wire,omitempty"`
}

// Validate checks type-specific structural requirements of inbound
// (agent-sent) messages; platform-sent messages are trusted locally.
func (m *Message) Validate() error {
	switch m.Type {
	case TypeHello:
		if _, err := FormatByName(m.Wire); err != nil {
			return err
		}
		return nil
	case TypeBid:
		if m.Duration < 1 {
			return fmt.Errorf("protocol: bid duration %d < 1", m.Duration)
		}
		if m.Duration > MaxDuration {
			return fmt.Errorf("protocol: bid duration %d exceeds limit %d", m.Duration, MaxDuration)
		}
		// NaN and ±Inf compare false against every threshold, so an
		// explicit finiteness check is required: a NaN cost would pass
		// `cost < 0` and then poison the greedy cost ordering.
		if math.IsNaN(m.Cost) || math.IsInf(m.Cost, 0) {
			return fmt.Errorf("protocol: non-finite bid cost %g", m.Cost)
		}
		if m.Cost < 0 {
			return fmt.Errorf("protocol: negative bid cost %g", m.Cost)
		}
		if len(m.Name) > MaxNameBytes {
			return fmt.Errorf("protocol: bid name %d bytes exceeds limit %d", len(m.Name), MaxNameBytes)
		}
		// The binary framing carries names as raw bytes; JSON cannot
		// represent invalid UTF-8, so rejecting it here keeps the two
		// framings' value spaces identical.
		if !utf8.ValidString(m.Name) {
			return fmt.Errorf("protocol: bid name is not valid UTF-8")
		}
		return nil
	case TypeResume:
		if m.Phone < 0 {
			return fmt.Errorf("protocol: resume phone %d < 0", m.Phone)
		}
		if m.Round < 1 {
			return fmt.Errorf("protocol: resume round %d < 1", m.Round)
		}
		return nil
	case TypeComplete:
		if m.Phone < 0 {
			return fmt.Errorf("protocol: complete phone %d < 0", m.Phone)
		}
		if m.Task < 0 {
			return fmt.Errorf("protocol: complete task %d < 0", m.Task)
		}
		if m.Round < 1 {
			return fmt.Errorf("protocol: complete round %d < 1", m.Round)
		}
		return nil
	case TypePayment, TypeClawback:
		// Platform-originated, but the amount must still be finite: a NaN
		// cannot survive a JSON re-encode.
		if !finite(m.Amount) {
			return fmt.Errorf("protocol: non-finite %s amount %g", m.Type, m.Amount)
		}
		return nil
	case TypeState:
		if !finite(m.Value) {
			return fmt.Errorf("protocol: non-finite state value %g", m.Value)
		}
		if !finite(m.Budget) || m.Budget < 0 {
			return fmt.Errorf("protocol: invalid state budget %g", m.Budget)
		}
		return nil
	case TypeEnd:
		if !finite(m.Welfare) || !finite(m.Payments) {
			return fmt.Errorf("protocol: non-finite end totals (welfare %g, payments %g)", m.Welfare, m.Payments)
		}
		if !finite(m.Budget) || m.Budget < 0 {
			return fmt.Errorf("protocol: invalid end budget %g", m.Budget)
		}
		return nil
	case TypeAck, TypeWelcome, TypeSlot, TypeAssign, TypeRound, TypeError:
		return nil
	case "":
		return fmt.Errorf("protocol: missing message type")
	default:
		return fmt.Errorf("protocol: unknown message type %q", m.Type)
	}
}

// finite reports whether f is neither NaN nor ±Inf.
func finite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// AppendFrame appends m's wire encoding in format f to dst and returns
// the extended slice. This is how pre-encoded frames are built once and
// shared across many connections (see Writer.QueueEncoded); Writer.Send
// uses it internally with a reusable scratch buffer.
func AppendFrame(dst []byte, m *Message, f Format) ([]byte, error) {
	switch f {
	case FormatJSON:
		b, err := json.Marshal(m)
		if err != nil {
			return dst, fmt.Errorf("protocol: encode %s: %w", m.Type, err)
		}
		dst = append(dst, b...)
		return append(dst, '\n'), nil
	case FormatBinary:
		return appendBinaryFrame(dst, m)
	default:
		return dst, fmt.Errorf("protocol: unknown format %d", f)
	}
}

// Writer frames messages onto a stream. Writer is not safe for
// concurrent use; callers serialize (the platform holds one per
// connection under its own writer goroutine). A Writer starts in JSON;
// SetFormat switches the framing of subsequent sends.
type Writer struct {
	bw      *bufio.Writer
	format  Format
	scratch []byte // reused across Send calls: steady-state sends allocate nothing
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Reset drops any unflushed bytes and makes w write to dst in JSON
// framing, keeping its buffers, so one Writer can serve connection
// after connection. Reset(nil) lets a pooled Writer release its last
// connection.
func (w *Writer) Reset(dst io.Writer) {
	w.bw.Reset(dst)
	w.format = FormatJSON
}

// SetFormat switches the framing of subsequent Send calls. The caller
// owns the negotiation ordering (see the package comment).
func (w *Writer) SetFormat(f Format) { w.format = f }

// Format returns the current framing.
func (w *Writer) Format() Format { return w.format }

// Send writes one message and flushes.
func (w *Writer) Send(m *Message) error {
	if err := w.Queue(m); err != nil {
		return err
	}
	return w.Flush()
}

// Queue stages m in the write buffer without flushing. Callers that
// drain a backlog (the platform's session writers) queue every pending
// message and flush once — write coalescing: one syscall (or one pipe
// handoff) carries the whole batch. An overfull buffer still writes
// through on its own.
func (w *Writer) Queue(m *Message) error {
	b, err := AppendFrame(w.scratch[:0], m, w.format)
	if err != nil {
		return err
	}
	w.scratch = b[:0]
	if _, err := w.bw.Write(b); err != nil {
		return fmt.Errorf("protocol: send %s: %w", m.Type, err)
	}
	return nil
}

// QueueEncoded stages a pre-encoded frame without flushing; see Queue.
func (w *Writer) QueueEncoded(frame []byte) error {
	if len(frame) == 0 {
		return nil
	}
	if _, err := w.bw.Write(frame); err != nil {
		return fmt.Errorf("protocol: send frame: %w", err)
	}
	return nil
}

// Flush writes the staged bytes through to the connection.
func (w *Writer) Flush() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("protocol: flush: %w", err)
	}
	return nil
}

// Reader parses messages off a stream. A Reader starts in JSON
// (newline-delimited) mode; SetFormat switches to binary frames while
// preserving any bytes already buffered, so a stream may negotiate
// formats mid-connection. Not safe for concurrent use.
//
// Every JSON message, a JSON line or a cold binary frame's body, goes
// through one json.Decoder that the Reader keeps across messages and
// across Reset, so a warmed Reader allocates only the strings a message
// carries.
type Reader struct {
	br      *bufio.Reader
	format  Format
	payload []byte // reused line/frame buffer; steady-state reads allocate nothing

	// dec decodes each JSON message from body. It is nil before the
	// first JSON message and after decodeJSON dropped it.
	dec  *json.Decoder
	body bytes.Reader
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 4096)}
}

// Reset discards any bytes buffered from the previous stream and makes r
// read from src in JSON framing, keeping its buffers, so one Reader can
// serve connection after connection. Reset(nil) lets a pooled Reader
// release its last connection.
func (r *Reader) Reset(src io.Reader) {
	r.br.Reset(src)
	r.format = FormatJSON
}

// SetFormat switches the framing of subsequent Receive calls. Buffered
// bytes carry over, so the switch may follow a JSON message that was
// already read from the same burst.
func (r *Reader) SetFormat(f Format) { r.format = f }

// Format returns the current framing.
func (r *Reader) Format() Format { return r.format }

// Receive reads the next message. It returns io.EOF at a clean end of
// stream and a descriptive error for malformed input.
func (r *Reader) Receive() (*Message, error) {
	m := new(Message)
	if err := r.ReceiveInto(m); err != nil {
		return nil, err
	}
	return m, nil
}

// ReceiveInto reads the next message into *m, overwriting it. This is
// the allocation-free read path: with binary framing, steady-state
// receives of the hot message types perform no allocations at all, and
// otherwise a warmed Reader allocates only the message's strings (its
// type and, for instance, a bid's name).
func (r *Reader) ReceiveInto(m *Message) error {
	*m = Message{}
	var err error
	if r.format == FormatBinary {
		err = r.receiveBinary(m)
	} else {
		err = r.receiveJSON(m)
	}
	if err != nil {
		return err
	}
	return m.Validate()
}

func (r *Reader) receiveJSON(m *Message) error {
	for {
		line, err := r.readLine()
		if err != nil {
			return err
		}
		if len(line) == 0 {
			continue
		}
		if err := r.decodeJSON(line, m); err != nil {
			// %v, not %w: a line of blanks decodes to io.EOF, which
			// callers would take for a clean hang-up.
			return fmt.Errorf("protocol: malformed message: %v", err)
		}
		return nil
	}
}

// decodeJSON decodes the first JSON value in b into *m exactly as a
// fresh json.Decoder with DisallowUnknownFields, reading b alone, would.
// A decoder's error is sticky, and one that stopped short of b's end
// still buffers the rest, so after an error, or a value that did not
// end at b's end, the decoder is dropped and the next message gets a
// fresh one.
func (r *Reader) decodeJSON(b []byte, m *Message) error {
	if r.dec == nil {
		r.dec = json.NewDecoder(&r.body)
		r.dec.DisallowUnknownFields()
	}
	r.body.Reset(b)
	start := r.dec.InputOffset()
	err := r.dec.Decode(m)
	if err != nil || r.dec.InputOffset()-start != int64(len(b)) {
		r.dec = nil
	}
	return err
}

// readLine accumulates the next newline-terminated line into the reused
// payload buffer, stripping the terminator (and a preceding CR, for
// telnet-style peers). A final unterminated line before EOF is returned
// as a line, matching bufio.Scanner's behavior.
func (r *Reader) readLine() ([]byte, error) {
	r.payload = r.payload[:0]
	for {
		chunk, err := r.br.ReadSlice('\n')
		r.payload = append(r.payload, chunk...)
		if len(r.payload) > MaxLineBytes+1 {
			return nil, fmt.Errorf("protocol: read: message exceeds %d bytes", MaxLineBytes)
		}
		switch {
		case err == nil:
			line := r.payload[:len(r.payload)-1] // strip '\n'
			if n := len(line); n > 0 && line[n-1] == '\r' {
				line = line[:n-1]
			}
			return line, nil
		case errors.Is(err, bufio.ErrBufferFull):
			continue
		case errors.Is(err, io.EOF):
			if len(r.payload) == 0 {
				return nil, io.EOF
			}
			return r.payload, nil
		default:
			return nil, fmt.Errorf("protocol: read: %w", err)
		}
	}
}

func (r *Reader) receiveBinary(m *Message) error {
	// Peek+Discard keeps the header inside the bufio buffer — a local
	// [4]byte passed through io.ReadFull's interface would escape and
	// cost one allocation per message.
	hdr, err := r.br.Peek(4)
	if err != nil {
		if errors.Is(err, io.EOF) {
			if len(hdr) == 0 {
				return io.EOF // clean end of stream at a frame boundary
			}
			return fmt.Errorf("protocol: torn frame header (%d of 4 bytes): %w", len(hdr), io.ErrUnexpectedEOF)
		}
		return fmt.Errorf("protocol: read frame header: %w", err)
	}
	n := int(uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24)
	if _, err := r.br.Discard(4); err != nil {
		return fmt.Errorf("protocol: read frame header: %w", err)
	}
	if n < 1 || n > MaxFrameBytes {
		return fmt.Errorf("protocol: binary frame length %d outside [1, %d]", n, MaxFrameBytes)
	}
	if cap(r.payload) < n {
		r.payload = make([]byte, n)
	}
	buf := r.payload[:n]
	if k, err := io.ReadFull(r.br, buf); err != nil {
		return fmt.Errorf("protocol: torn binary frame (%d of %d payload bytes): %w", k, n, err)
	}
	return r.decodeBinaryPayload(buf, m)
}
