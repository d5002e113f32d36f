package protocol

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dynacrowd/internal/core"
)

func TestRoundTripAllTypes(t *testing.T) {
	msgs := []*Message{
		{Type: TypeHello},
		{Type: TypeState, Slot: 3, Slots: 50, Value: 30},
		{Type: TypeBid, Name: "phone-a", Duration: 5, Cost: 12.5},
		{Type: TypeAck},
		{Type: TypeWelcome, Phone: 7, Slot: 4, Departure: 8},
		{Type: TypeSlot, Slot: 9},
		{Type: TypeAssign, Phone: 7, Task: 2, Slot: 9},
		{Type: TypePayment, Phone: 7, Amount: 19.25, Slot: 11},
		{Type: TypeEnd, Welfare: 812.5, Payments: 1100},
		{Type: TypeResume, Phone: 7, Round: 2},
		{Type: TypeError, Error: "boom"},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, m := range msgs {
		if err := w.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i, want := range msgs {
		got, err := r.Receive()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if *got != *want {
			t.Fatalf("message %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Receive(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF at stream end, got %v", err)
	}
}

func TestReceiveSkipsBlankLines(t *testing.T) {
	r := NewReader(strings.NewReader("\n\n{\"type\":\"hello\"}\n"))
	m, err := r.Receive()
	if err != nil || m.Type != TypeHello {
		t.Fatalf("got %+v, %v", m, err)
	}
}

func TestReceiveRejects(t *testing.T) {
	cases := []struct {
		name string
		line string
	}{
		{"not json", "{nope\n"},
		{"unknown field", `{"type":"hello","extra":1}` + "\n"},
		{"unknown type", `{"type":"warble"}` + "\n"},
		{"missing type", `{"slot":3}` + "\n"},
		{"bad bid duration", `{"type":"bid","cost":5}` + "\n"},
		{"negative bid cost", `{"type":"bid","duration":2,"cost":-4}` + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewReader(strings.NewReader(tc.line)).Receive(); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

// TestBlankMessageIsNotEOF: a JSON line or a cold binary frame body of
// only blanks is a malformed message, not a clean end of stream, though
// the decoder reports it as io.EOF.
func TestBlankMessageIsNotEOF(t *testing.T) {
	cases := []struct {
		format Format
		raw    []byte
		want   string
	}{
		{FormatJSON, []byte(" \t \n"), "protocol: malformed message: EOF"},
		{FormatBinary, []byte{4, 0, 0, 0, codeEnd, ' ', ' ', '\t'}, "protocol: end frame: malformed JSON body: EOF"},
	}
	for _, tc := range cases {
		r := NewReader(bytes.NewReader(tc.raw))
		r.SetFormat(tc.format)
		m, err := r.Receive()
		if err == nil || errors.Is(err, io.EOF) || err.Error() != tc.want {
			t.Errorf("%s: blank message read as %+v, %v; want the error %q, not io.EOF", tc.format, m, err, tc.want)
		}
	}
}

func TestReceiveOversizedLine(t *testing.T) {
	line := `{"type":"bid","duration":1,"cost":1,"name":"` + strings.Repeat("x", MaxLineBytes) + `"}`
	if _, err := NewReader(strings.NewReader(line + "\n")).Receive(); err == nil {
		t.Fatal("want error for oversized message")
	}
}

func TestValidateTable(t *testing.T) {
	good := []Message{
		{Type: TypeHello},
		{Type: TypeBid, Duration: 1},
		{Type: TypeBid, Duration: 10, Cost: 3},
		{Type: TypeBid, Duration: MaxDuration, Cost: 3},
		{Type: TypeEnd},
		{Type: TypeResume, Phone: 0, Round: 1},
		{Type: TypeResume, Phone: 12, Round: 3},
	}
	for _, m := range good {
		if err := m.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", m, err)
		}
	}
	bad := []Message{
		{},
		{Type: "nonsense"},
		{Type: TypeBid},
		{Type: TypeBid, Duration: -1},
		{Type: TypeBid, Duration: 1, Cost: -0.5},
		{Type: TypeResume, Phone: -1, Round: 1},
		{Type: TypeResume, Phone: 0, Round: 0},
		{Type: TypeResume, Phone: 0, Round: -2},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%+v accepted", m)
		}
	}
}

// TestValidateRejectsHostileBids: table tests for the bid fields an
// adversarial agent could weaponize — non-finite costs poison the
// greedy cost ordering (NaN compares false against every threshold),
// and durations near the integer limit overflow the departure
// arithmetic past the round-length clamp.
func TestValidateRejectsHostileBids(t *testing.T) {
	cases := []struct {
		name string
		m    Message
	}{
		{"NaN cost", Message{Type: TypeBid, Duration: 2, Cost: math.NaN()}},
		{"+Inf cost", Message{Type: TypeBid, Duration: 2, Cost: math.Inf(1)}},
		{"-Inf cost", Message{Type: TypeBid, Duration: 2, Cost: math.Inf(-1)}},
		{"duration past limit", Message{Type: TypeBid, Duration: MaxDuration + 1, Cost: 1}},
		{"overflowing duration", Message{Type: TypeBid, Duration: core.Slot(math.MaxInt64), Cost: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.m.Validate(); err == nil {
				t.Fatalf("%+v accepted", tc.m)
			}
		})
	}
	// The wire layer rejects them too (NaN/Inf are not valid JSON
	// numbers, so they already fail to encode; a hostile peer would
	// hand-craft the line instead).
	for _, line := range []string{
		`{"type":"bid","duration":2,"cost":1e999}`,
		`{"type":"bid","duration":9223372036854775807,"cost":1}`,
	} {
		if _, err := NewReader(strings.NewReader(line + "\n")).Receive(); err == nil {
			t.Fatalf("wire accepted %s", line)
		}
	}
}

// TestWireRoundTripProperty fuzzes bid payloads through the framing.
func TestWireRoundTripProperty(t *testing.T) {
	prop := func(name string, duration uint8, costCents uint32) bool {
		if strings.ContainsAny(name, "\n\r") {
			name = strings.NewReplacer("\n", "", "\r", "").Replace(name)
		}
		m := &Message{
			Type:     TypeBid,
			Name:     name,
			Duration: core.Slot(1 + int(duration)&0x3f), // keep small and positive
			Cost:     float64(costCents) / 100,
		}
		var buf bytes.Buffer
		if err := NewWriter(&buf).Send(m); err != nil {
			return false
		}
		got, err := NewReader(&buf).Receive()
		if err != nil {
			return false
		}
		return *got == *m
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestReceiveAllocs: a warmed Reader decodes JSON through the decoder it
// keeps, so a message costs only the strings it carries: its type, for
// the JSON lines and for the cold JSON bodies of binary frames alike.
func TestReceiveAllocs(t *testing.T) {
	cases := []struct {
		format  Format
		m       *Message
		strings int // strings the decoded message carries
	}{
		{FormatJSON, &Message{Type: TypeSlot, Slot: 17}, 1},
		{FormatJSON, &Message{Type: TypeAssign, Phone: 4, Task: 9, Slot: 17}, 1},
		{FormatJSON, &Message{Type: TypePayment, Phone: 4, Amount: 23.75, Slot: 20}, 1},
		{FormatBinary, &Message{Type: TypeAck}, 1},
		{FormatBinary, &Message{Type: TypeWelcome, Phone: 4, Slot: 17, Departure: 21, Round: 2}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.format.String()+"/"+tc.m.Type, func(t *testing.T) {
			frame, err := AppendFrame(nil, tc.m, tc.format)
			if err != nil {
				t.Fatal(err)
			}
			r := NewReader(&loopReader{frame: frame})
			r.SetFormat(tc.format)
			var got Message
			receive := func() {
				if err := r.ReceiveInto(&got); err != nil {
					t.Fatal(err)
				}
			}
			receive() // warm: the decoder and its buffers
			if avg := testing.AllocsPerRun(100, receive); avg > float64(tc.strings) {
				t.Fatalf("%v allocs per message, want <= %d", avg, tc.strings)
			}
			if got != *tc.m {
				t.Fatalf("decoded %+v, want %+v", got, *tc.m)
			}
		})
	}
}

// TestReceiveIgnoresBytesAfterValue: a line's bytes after its first JSON
// value are ignored, as a fresh decoder ignores them, and must not be
// decoded as the next message.
func TestReceiveIgnoresBytesAfterValue(t *testing.T) {
	r := NewReader(strings.NewReader(`{"type":"ack"}{"type":"slot","slot":3}` + "\n" +
		`{"type":"slot","slot":5}` + "\n"))
	if m, err := r.Receive(); err != nil || m.Type != TypeAck {
		t.Fatalf("first line: %+v, %v; want ack", m, err)
	}
	if m, err := r.Receive(); err != nil || *m != (Message{Type: TypeSlot, Slot: 5}) {
		t.Fatalf("second line: %+v, %v; want slot 5", m, err)
	}
}

// TestReceiveAfterMalformed: a decoder's error is sticky, so a malformed
// message must not poison the next one, in either framing.
func TestReceiveAfterMalformed(t *testing.T) {
	slot5 := Message{Type: TypeSlot, Slot: 5}
	r := NewReader(strings.NewReader(`{"type":"slot","slot":x}` + "\n" +
		`{"type":"slot","slot":5}` + "\n"))
	if m, err := r.Receive(); err == nil {
		t.Fatalf("malformed line accepted as %+v", m)
	}
	if m, err := r.Receive(); err != nil || *m != slot5 {
		t.Fatalf("line after the malformed one: %+v, %v; want slot 5", m, err)
	}

	stream := append([]byte{6, 0, 0, 0, codeAck}, `{"x":`...) // unterminated body
	stream = append(stream, binaryFrame(t, &Message{Type: TypeAck})...)
	r.Reset(bytes.NewReader(stream))
	r.SetFormat(FormatBinary)
	if m, err := r.Receive(); err == nil {
		t.Fatalf("malformed body accepted as %+v", m)
	}
	if m, err := r.Receive(); err != nil || m.Type != TypeAck {
		t.Fatalf("frame after the malformed body: %+v, %v; want ack", m, err)
	}
}
