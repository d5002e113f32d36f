package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"dynacrowd/internal/core"
)

// sampleMessages covers every message type with representative field
// values (hot types exercise their fixed layouts, cold types their
// JSON-in-frame carriage).
func sampleMessages() []Message {
	return []Message{
		{Type: TypeHello, Wire: WireBinary},
		{Type: TypeState, Slot: 3, Slots: 20, Value: 30.5, Round: 2, Wire: WireBinary},
		{Type: TypeBid, Name: "phone-7", Duration: 5, Cost: 12.25},
		{Type: TypeBid, Name: "", Duration: 1, Cost: 0},
		{Type: TypeAck},
		{Type: TypeWelcome, Phone: 4, Slot: 2, Departure: 6, Round: 1},
		{Type: TypeSlot, Slot: 9},
		{Type: TypeSlot, Slot: 0},
		{Type: TypeAssign, Phone: 11, Task: 3, Slot: 7},
		{Type: TypePayment, Phone: 11, Amount: 27.75, Slot: 8},
		{Type: TypePayment, Phone: 2, Amount: 0, Slot: 1},
		{Type: TypeEnd, Welfare: 120.5, Payments: 88.25, Round: 3},
		{Type: TypeRound, Round: 4},
		{Type: TypeResume, Phone: 5, Round: 2},
		{Type: TypeError, Error: "bid rejected: window closed"},
		{Type: TypeComplete, Phone: 5, Task: 1, Round: 2},
		{Type: TypeClawback, Phone: 5, Amount: 13.5, Slot: 9},
	}
}

func TestBinaryRoundTripAllTypes(t *testing.T) {
	for _, want := range sampleMessages() {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.SetFormat(FormatBinary)
		if err := w.Send(&want); err != nil {
			t.Fatalf("send %s: %v", want.Type, err)
		}
		r := NewReader(&buf)
		r.SetFormat(FormatBinary)
		got, err := r.Receive()
		if err != nil {
			t.Fatalf("receive %s: %v", want.Type, err)
		}
		if *got != want {
			t.Errorf("round trip %s: got %+v want %+v", want.Type, got, want)
		}
		if _, err := r.Receive(); err != io.EOF {
			t.Errorf("after %s: want io.EOF, got %v", want.Type, err)
		}
	}
}

// TestBinaryMatchesJSONDecode proves the two framings agree: every
// sample message encoded in binary decodes to the same Message a JSON
// round trip produces.
func TestBinaryMatchesJSONDecode(t *testing.T) {
	for _, m := range sampleMessages() {
		viaJSON := roundTrip(t, m, FormatJSON)
		viaBin := roundTrip(t, m, FormatBinary)
		if viaJSON != viaBin {
			t.Errorf("%s: json %+v != binary %+v", m.Type, viaJSON, viaBin)
		}
	}
}

func roundTrip(t *testing.T, m Message, f Format) Message {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetFormat(f)
	if err := w.Send(&m); err != nil {
		t.Fatalf("%v send %s: %v", f, m.Type, err)
	}
	r := NewReader(&buf)
	r.SetFormat(f)
	got, err := r.Receive()
	if err != nil {
		t.Fatalf("%v receive %s: %v", f, m.Type, err)
	}
	return *got
}

// TestMidStreamFormatSwitch exercises the negotiation shape: a JSON
// hello and state, then binary frames on the same stream, all written
// into one buffer before the reader starts — the reader must not
// over-read past the JSON line it consumes.
func TestMidStreamFormatSwitch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Send(&Message{Type: TypeHello, Wire: WireBinary}); err != nil {
		t.Fatal(err)
	}
	if err := w.Send(&Message{Type: TypeState, Slots: 20, Value: 30, Round: 1, Wire: WireBinary}); err != nil {
		t.Fatal(err)
	}
	w.SetFormat(FormatBinary)
	for slot := core.Slot(1); slot <= 3; slot++ {
		if err := w.Send(&Message{Type: TypeSlot, Slot: slot}); err != nil {
			t.Fatal(err)
		}
	}

	r := NewReader(&buf)
	m, err := r.Receive()
	if err != nil || m.Type != TypeHello {
		t.Fatalf("hello: %+v, %v", m, err)
	}
	m, err = r.Receive()
	if err != nil || m.Type != TypeState || m.Wire != WireBinary {
		t.Fatalf("state: %+v, %v", m, err)
	}
	r.SetFormat(FormatBinary)
	for slot := core.Slot(1); slot <= 3; slot++ {
		m, err = r.Receive()
		if err != nil || m.Type != TypeSlot || m.Slot != slot {
			t.Fatalf("slot %d: %+v, %v", slot, m, err)
		}
	}
	if _, err := r.Receive(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

func TestBinaryRejects(t *testing.T) {
	frame := func(code uint8, body []byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(1+len(body)))
		b = append(b, code)
		return append(b, body...)
	}
	cases := []struct {
		name string
		raw  []byte
	}{
		{"zero length", []byte{0, 0, 0, 0}},
		{"oversized length", binary.LittleEndian.AppendUint32(nil, MaxFrameBytes+1)},
		{"huge length", []byte{0xff, 0xff, 0xff, 0xff}},
		{"truncated header", []byte{5, 0}},
		{"truncated payload", []byte{10, 0, 0, 0, codeSlot, 1, 2}},
		{"unknown code", frame(200, nil)},
		{"code zero", frame(0, nil)},
		{"slot short body", frame(codeSlot, make([]byte, 4))},
		{"slot long body", frame(codeSlot, make([]byte, 12))},
		{"assign short body", frame(codeAssign, make([]byte, 23))},
		{"payment long body", frame(codePayment, make([]byte, 25))},
		{"bid too short", frame(codeBid, make([]byte, 17))},
		{"bid name length lies", frame(codeBid, append(make([]byte, 16), 0xff, 0x00))},
		{"bid zero duration", frame(codeBid, make([]byte, 18))},
		{"cold type garbage json", frame(codeEnd, []byte("{nope"))},
		{"cold type unknown field", frame(codeEnd, []byte(`{"type":"end","bogus":1}`))},
		{"cold type code mismatch", frame(codeEnd, []byte(`{"type":"ack"}`))},
		{"nan bid cost", frame(codeBid, func() []byte {
			b := binary.LittleEndian.AppendUint64(nil, 1)               // duration
			b = binary.LittleEndian.AppendUint64(b, 0x7ff8000000000001) // NaN bits
			return binary.LittleEndian.AppendUint16(b, 0)
		}())},
	}
	// Codes 15–29 are retired. Each gets a body its old decoder would
	// have accepted, so only the code itself can cause the rejection.
	retired := map[uint8][]byte{
		15: []byte(`{"type":"shard-join","shard":0,"shards":2}`),
		16: []byte(`{"type":"shard-snapshot","data":""}`),
		29: []byte(`{"type":"shard-track","count":1}`),
	}
	for code, n := range map[uint8]int{17: 32, 18: 24, 19: 24, 20: 24, 21: 8, 22: 8, 23: 32, 24: 16, 25: 16, 26: 24, 27: 16, 28: 8} {
		retired[code] = make([]byte, n)
	}
	for code := uint8(15); code <= 29; code++ {
		cases = append(cases, struct {
			name string
			raw  []byte
		}{fmt.Sprintf("retired code %d", code), frame(code, retired[code])})
	}
	for _, tc := range cases {
		r := NewReader(bytes.NewReader(tc.raw))
		r.SetFormat(FormatBinary)
		if m, err := r.Receive(); err == nil {
			t.Errorf("%s: want error, got %+v", tc.name, m)
		} else if err == io.EOF && tc.name != "truncated header" {
			// A truncated header is indistinguishable from a clean close
			// only when zero bytes arrive; everything else must produce a
			// descriptive error, not bare EOF.
			t.Errorf("%s: want descriptive error, got bare io.EOF", tc.name)
		}
	}
}

func TestBinaryFrameEOFAtBoundary(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	r.SetFormat(FormatBinary)
	if _, err := r.Receive(); err != io.EOF {
		t.Fatalf("want io.EOF at clean boundary, got %v", err)
	}
}

func TestFormatByName(t *testing.T) {
	for name, want := range map[string]Format{"": FormatJSON, WireJSON: FormatJSON, WireBinary: FormatBinary} {
		got, err := FormatByName(name)
		if err != nil || got != want {
			t.Errorf("FormatByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := FormatByName("msgpack"); err == nil {
		t.Error("FormatByName(msgpack): want error")
	}
	if (&Message{Type: TypeHello, Wire: "msgpack"}).Validate() == nil {
		t.Error("hello with unknown wire must fail Validate")
	}
}

// TestReceiveIntoAllocFree pins the binary hot-path read at zero
// allocations per message once the payload buffer is warm.
func TestReceiveIntoAllocFree(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetFormat(FormatBinary)
	const n = 200
	for i := 0; i < n; i++ {
		if err := w.Send(&Message{Type: TypeSlot, Slot: core.Slot(i)}); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.SetFormat(FormatBinary)
	var m Message
	if err := r.ReceiveInto(&m); err != nil { // warm the payload buffer
		t.Fatal(err)
	}
	// AllocsPerRun invokes the function runs+1 times (one warmup), so
	// leave headroom in the message count.
	avg := testing.AllocsPerRun(n-10, func() {
		if err := r.ReceiveInto(&m); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("binary ReceiveInto allocs/msg = %v, want 0", avg)
	}
}

// TestSendAllocFree pins the binary hot-path write at zero allocations
// per message once the scratch buffer is warm.
func TestSendAllocFree(t *testing.T) {
	w := NewWriter(io.Discard)
	w.SetFormat(FormatBinary)
	m := &Message{Type: TypeSlot, Slot: 42}
	if err := w.Send(m); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := w.Send(m); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("binary Send allocs/msg = %v, want 0", avg)
	}
}

func benchmarkSend(b *testing.B, f Format, m *Message) {
	w := NewWriter(io.Discard)
	w.SetFormat(f)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.Send(m); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkReceive(b *testing.B, f Format, m *Message) {
	frame, err := AppendFrame(nil, m, f)
	if err != nil {
		b.Fatal(err)
	}
	// A looping reader replays the one frame forever without reallocating.
	r := NewReader(&loopReader{frame: frame})
	r.SetFormat(f)
	var out Message
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.ReceiveInto(&out); err != nil {
			b.Fatal(err)
		}
	}
}

type loopReader struct {
	frame []byte
	off   int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.frame[l.off:])
	l.off = (l.off + n) % len(l.frame)
	return n, nil
}

func BenchmarkWireSlot(b *testing.B) {
	m := &Message{Type: TypeSlot, Slot: 17}
	b.Run("json/send", func(b *testing.B) { benchmarkSend(b, FormatJSON, m) })
	b.Run("binary/send", func(b *testing.B) { benchmarkSend(b, FormatBinary, m) })
	b.Run("json/recv", func(b *testing.B) { benchmarkReceive(b, FormatJSON, m) })
	b.Run("binary/recv", func(b *testing.B) { benchmarkReceive(b, FormatBinary, m) })
}

func BenchmarkWireBid(b *testing.B) {
	m := &Message{Type: TypeBid, Name: "agent-12345", Duration: 5, Cost: 23.75}
	b.Run("json/send", func(b *testing.B) { benchmarkSend(b, FormatJSON, m) })
	b.Run("binary/send", func(b *testing.B) { benchmarkSend(b, FormatBinary, m) })
	b.Run("json/recv", func(b *testing.B) { benchmarkReceive(b, FormatJSON, m) })
	b.Run("binary/recv", func(b *testing.B) { benchmarkReceive(b, FormatBinary, m) })
}

// TestReaderReset: Reset discards whatever the Reader buffered from its
// previous stream and returns to JSON framing, so a pooled Reader that
// last read binary frames decodes a new connection's JSON hello.
func TestReaderReset(t *testing.T) {
	var old bytes.Buffer
	for _, m := range []*Message{{Type: TypeSlot, Slot: 1}, {Type: TypeSlot, Slot: 2}} {
		b, err := AppendFrame(nil, m, FormatBinary)
		if err != nil {
			t.Fatal(err)
		}
		old.Write(b)
	}
	r := NewReader(&old)
	r.SetFormat(FormatBinary)
	if m, err := r.Receive(); err != nil || m.Slot != 1 {
		t.Fatalf("first binary frame: %+v, %v", m, err)
	}
	if old.Len() != 0 {
		t.Fatal("the second frame must sit in the Reader's buffer for this test")
	}

	r.Reset(strings.NewReader(`{"type":"hello"}` + "\n"))
	if r.Format() != FormatJSON {
		t.Fatalf("format after Reset = %v, want JSON", r.Format())
	}
	if m, err := r.Receive(); err != nil || m.Type != TypeHello {
		t.Fatalf("hello on the new stream: %+v, %v", m, err)
	}
	if m, err := r.Receive(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the new stream's hello: %+v, %v; want EOF (the old frame discarded)", m, err)
	}
}

// TestWriterReset: Reset drops bytes staged for the previous stream and
// returns to JSON framing.
func TestWriterReset(t *testing.T) {
	var old, fresh bytes.Buffer
	w := NewWriter(&old)
	w.SetFormat(FormatBinary)
	if err := w.Queue(&Message{Type: TypeSlot, Slot: 1}); err != nil {
		t.Fatal(err)
	}
	w.Reset(&fresh)
	if w.Format() != FormatJSON {
		t.Fatalf("format after Reset = %v, want JSON", w.Format())
	}
	if err := w.Send(&Message{Type: TypeState, Slot: 1, Slots: 5, Value: 10}); err != nil {
		t.Fatal(err)
	}
	if old.Len() != 0 {
		t.Fatalf("unflushed bytes reached the old stream: %q", old.Bytes())
	}
	if got, want := fresh.String(), `{"type":"state","slot":1,"slots":5,"value":10}`+"\n"; got != want {
		t.Fatalf("new stream = %q, want %q", got, want)
	}
}
