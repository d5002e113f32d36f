package protocol

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"dynacrowd/internal/chaos"
)

// FuzzReceive feeds arbitrary bytes through the wire reader: it must
// never panic, and every message it accepts must satisfy Validate and
// survive a re-encode/re-decode round trip.
func FuzzReceive(f *testing.F) {
	f.Add([]byte(`{"type":"hello"}` + "\n"))
	f.Add([]byte(`{"type":"bid","name":"a","duration":3,"cost":1.5}` + "\n"))
	f.Add([]byte(`{"type":"state","slot":1,"slots":50,"value":30}` + "\n"))
	f.Add([]byte(`{"type":"payment","phone":2,"amount":9.25,"slot":7}` + "\n"))
	f.Add([]byte("\n\n{\"type\":\"ack\"}\n"))
	f.Add([]byte(`{nope`))
	f.Add([]byte(strings.Repeat("x", 1024)))
	f.Add([]byte{0x00, 0xff, 0x7b})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ { // bounded: the stream is finite anyway
			m, err := r.Receive()
			if err != nil {
				return // EOF or malformed input — both fine
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("Receive returned invalid message %+v: %v", m, err)
			}
			var buf bytes.Buffer
			if err := NewWriter(&buf).Send(m); err != nil {
				t.Fatalf("re-encode of %+v: %v", m, err)
			}
			back, err := NewReader(&buf).Receive()
			if err != nil {
				t.Fatalf("re-decode of %+v: %v", m, err)
			}
			if *back != *m {
				t.Fatalf("round trip changed message: %+v -> %+v", m, back)
			}
		}
	})
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
	frame := func(m *Message) []byte {
		b, err := AppendFrame(nil, m, FormatBinary)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	slot := frame(&Message{Type: TypeSlot, Slot: 7})
	bid := frame(&Message{Type: TypeBid, Name: "phone-a", Duration: 3, Cost: 12.5})
	assign := frame(&Message{Type: TypeAssign, Phone: 2, Task: 9, Slot: 4})
	payment := frame(&Message{Type: TypePayment, Phone: 2, Amount: 27.25, Slot: 5})
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
			m := &accepted[i]
			if err := m.Validate(); err != nil {
				t.Fatalf("accepted invalid message %+v: %v", m, err)
			}
			for _, format := range []Format{FormatBinary, FormatJSON} {
				enc, err := AppendFrame(nil, m, format)
				if err != nil {
					t.Fatalf("re-encode (%s) of %+v: %v", format, m, err)
				}
				rr := NewReader(bytes.NewReader(enc))
				rr.SetFormat(format)
				back, err := rr.Receive()
				if err != nil {
					t.Fatalf("re-decode (%s) of %+v: %v", format, m, err)
				}
				if *back != *m {
					t.Fatalf("%s round trip changed message: %+v -> %+v", format, m, back)
				}
			}
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
