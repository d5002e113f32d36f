package protocol

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"dynacrowd/internal/chaos"
)

// FuzzReceive is a differential fuzzer for the Reader's reused JSON
// decoder. Every input is read by one Reader, Reset between inputs the
// way a pooled Reader moves between connections, first as JSON lines and
// then as binary frames. Each read must give the same message, or the
// same error string, as an oracle that decodes every message with a
// fresh json.Decoder: for JSON lines the literal decode kept below, for
// binary frames a Reader whose decoder is dropped before each frame.
// Reading goes on past malformed messages, so a message that leaves the
// decoder dirty shows in the next one. Every accepted message must also
// satisfy Validate and survive a re-encode/re-decode round trip.
func FuzzReceive(f *testing.F) {
	f.Add([]byte(`{"type":"hello"}` + "\n"))
	f.Add([]byte(`{"type":"bid","name":"a","duration":3,"cost":1.5}` + "\n"))
	f.Add([]byte(`{"type":"state","slot":1,"slots":50,"value":30}` + "\n"))
	f.Add([]byte(`{"type":"payment","phone":2,"amount":9.25,"slot":7}` + "\n"))
	f.Add([]byte("\n\n{\"type\":\"ack\"}\n"))
	f.Add([]byte(`{nope`))
	f.Add([]byte(strings.Repeat("x", 1024)))
	f.Add([]byte{0x00, 0xff, 0x7b})
	f.Add([]byte(`{"type":"ack"}{"type":"slot","slot":3}` + "\n" + `{"type":"slot","slot":5}` + "\n"))
	f.Add([]byte(`{"type":"slot","slot":x}` + "\n" + `{"type":"slot","slot":5}` + "\n"))
	f.Add([]byte("null\n5\n" + `{"type":"ack"}` + "\n"))
	f.Add([]byte(`{"type":"ack"} ` + "\n   \n" + `{"type":"slot","slot":"5"}` + "\n" + `{"type":"ack","extra":1}` + "\n" + `{"type":"ack"}`))
	f.Add(append(binaryFrame(f, &Message{Type: TypeWelcome, Phone: 3, Slot: 2, Departure: 6, Round: 1}),
		binaryFrame(f, &Message{Type: TypeError, Error: "late"})...))
	f.Add(append([]byte{6, 0, 0, 0, codeAck, '{', '"', 'x', '"', '}'}, binaryFrame(f, &Message{Type: TypeAck})...))

	pooled := NewReader(nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range []Format{FormatJSON, FormatBinary} {
			var want []received
			if format == FormatJSON {
				want = literalReceiveJSON(data)
			} else {
				want = freshDecoderReceiveBinary(data)
			}
			pooled.Reset(bytes.NewReader(data))
			pooled.SetFormat(format)
			for i, w := range want {
				got := receiveOne(pooled)
				if got != w {
					t.Fatalf("%s message %d: reused decoder read %+v, fresh decoder %+v", format, i, got, w)
				}
				if got.err == "" {
					checkRoundTrip(t, &got.m)
				}
			}
		}
	})
}

// binaryFrame returns m's binary frame.
func binaryFrame(tb testing.TB, m *Message) []byte {
	b, err := AppendFrame(nil, m, FormatBinary)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// received is one read's outcome: the message, or the error's text.
type received struct {
	m   Message
	err string
}

// maxReads bounds the reads of one fuzz input; the stream is finite
// anyway.
const maxReads = 64

func receiveOne(r *Reader) received {
	var m Message
	if err := r.ReceiveInto(&m); err != nil {
		return received{err: err.Error()}
	}
	return received{m: m}
}

// literalReceiveJSON reads data as JSON lines, decoding each line with a
// fresh json.Decoder, until the stream ends or maxReads reads.
func literalReceiveJSON(data []byte) []received {
	lines := NewReader(bytes.NewReader(data)) // splits lines only
	var out []received
	for len(out) < maxReads {
		line, err := lines.readLine()
		if err != nil {
			out = append(out, received{err: err.Error()})
			if err == io.EOF {
				break
			}
			continue
		}
		if len(line) == 0 {
			continue
		}
		var m Message
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&m); err != nil {
			out = append(out, received{err: fmt.Sprintf("protocol: malformed message: %v", err)})
			continue
		}
		if err := m.Validate(); err != nil {
			out = append(out, received{err: err.Error()})
			continue
		}
		out = append(out, received{m: m})
	}
	return out
}

// freshDecoderReceiveBinary reads data as binary frames through a Reader
// whose JSON decoder is dropped before every frame.
func freshDecoderReceiveBinary(data []byte) []received {
	r := NewReader(bytes.NewReader(data))
	r.SetFormat(FormatBinary)
	var out []received
	for len(out) < maxReads {
		r.dec = nil
		got := receiveOne(r)
		out = append(out, got)
		if got.err == io.EOF.Error() {
			break
		}
	}
	return out
}

// checkRoundTrip requires an accepted message to satisfy Validate and to
// survive a re-encode/re-decode round trip in both framings.
func checkRoundTrip(t *testing.T, m *Message) {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatalf("accepted invalid message %+v: %v", m, err)
	}
	for _, format := range []Format{FormatJSON, FormatBinary} {
		enc, err := AppendFrame(nil, m, format)
		if err != nil {
			t.Fatalf("re-encode (%s) of %+v: %v", format, m, err)
		}
		r := NewReader(bytes.NewReader(enc))
		r.SetFormat(format)
		back, err := r.Receive()
		if err != nil {
			t.Fatalf("re-decode (%s) of %+v: %v", format, m, err)
		}
		if *back != *m {
			t.Fatalf("%s round trip changed message: %+v -> %+v", format, m, back)
		}
	}
}

// FuzzBinaryFrame feeds arbitrary bytes through the binary-framed
// reader. Three properties must hold:
//
//  1. No panic, ever; torn, oversized, and truncated frames are
//     rejected with errors, never misparsed.
//  2. Every accepted message satisfies Validate, survives a binary
//     re-encode/re-decode round trip, and decodes identically through
//     the JSON framing — the two framings share one value space.
//  3. Delivery is segmentation-independent: the same byte stream
//     chunked into arbitrary Read-sized fragments by a chaos conn
//     yields the same accepted prefix of messages.
//
// Every input is read by one Reader, Reset between inputs the way a
// pooled Reader moves between connections, so whatever the previous
// input left buffered must not leak into the next.
func FuzzBinaryFrame(f *testing.F) {
	slot := binaryFrame(f, &Message{Type: TypeSlot, Slot: 7})
	bid := binaryFrame(f, &Message{Type: TypeBid, Name: "phone-a", Duration: 3, Cost: 12.5})
	assign := binaryFrame(f, &Message{Type: TypeAssign, Phone: 2, Task: 9, Slot: 4})
	payment := binaryFrame(f, &Message{Type: TypePayment, Phone: 2, Amount: 27.25, Slot: 5})
	f.Add(append(append([]byte{}, slot...), bid...), uint8(3))
	f.Add(append(append([]byte{}, assign...), payment...), uint8(1))
	f.Add(slot[:len(slot)-2], uint8(5))                              // truncated payload
	f.Add(slot[:2], uint8(2))                                        // torn header
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1}, uint8(4))               // oversized length
	f.Add([]byte{0, 0, 0, 0}, uint8(1))                              // zero length
	f.Add([]byte{9, 0, 0, 0, 200, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(6)) // unknown code
	f.Add([]byte{9, 0, 0, 0, 21, 1, 0, 0, 0, 0, 0, 0, 0}, uint8(2))  // retired code
	f.Add([]byte(`{"type":"slot","slot":1}`+"\n"), uint8(3))         // JSON fed to binary reader

	pooled := NewReader(nil)
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		r := pooled
		r.Reset(bytes.NewReader(data))
		if r.Format() != FormatJSON {
			t.Fatalf("Reset left format %v, want JSON", r.Format())
		}
		r.SetFormat(FormatBinary)
		var accepted []Message
		for len(accepted) < 64 {
			m, err := r.Receive()
			if err != nil {
				break // EOF or malformed input — both fine
			}
			accepted = append(accepted, *m)
		}
		for i := range accepted {
			checkRoundTrip(t, &accepted[i])
		}

		// Same bytes, delivered through a chaos conn that splits every
		// write into tiny chunks: frame reassembly must accept the
		// identical message sequence regardless of segmentation. Large
		// inputs are skipped — tiny chunks over net.Pipe cost a
		// goroutine handoff per chunk, and segmentation bugs show up
		// within a few frames anyway.
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		server, client := net.Pipe()
		defer server.Close()
		go func() {
			defer client.Close()
			cc := chaos.WrapConn(client, chaos.Plan{ChunkBytes: int(chunk%7) + 1}, 1)
			cc.Write(data)
		}()
		cr := NewReader(server)
		cr.SetFormat(FormatBinary)
		for i := range accepted {
			m, err := cr.Receive()
			if err != nil {
				t.Fatalf("chunked delivery lost message %d: %v", i, err)
			}
			if *m != accepted[i] {
				t.Fatalf("chunked delivery changed message %d: %+v -> %+v", i, accepted[i], m)
			}
		}
		if m, err := cr.Receive(); err == nil && len(accepted) < 64 {
			t.Fatalf("chunked delivery invented message %+v", m)
		}
	})
}
