package main

import (
	"testing"
	"time"

	"dynacrowd/internal/platform"
	"dynacrowd/internal/protocol"
)

// TestRunAgentAgainstInProcessPlatform drives the CLI's agent loop
// against a real platform server in each wire format: bid, win, get
// paid, survive the round end, and return cleanly when the server
// closes.
func TestRunAgentAgainstInProcessPlatform(t *testing.T) {
	for _, wire := range []string{protocol.WireJSON, protocol.WireBinary} {
		t.Run(wire, func(t *testing.T) {
			srv, err := platform.Listen("127.0.0.1:0", platform.Config{Slots: 2, Value: 10})
			if err != nil {
				t.Fatal(err)
			}

			done := make(chan error, 1)
			go func() { done <- runAgent(srv.Addr(), "cli-test", 2, 4, true, 1, wire, 1) }()

			// Give the agent time to connect and bid, then play the round out.
			deadline := time.After(5 * time.Second)
			for srv.Stats().BidsAccepted == 0 {
				select {
				case <-deadline:
					t.Fatal("agent never bid")
				case err := <-done:
					t.Fatalf("agent exited early: %v", err)
				default:
					time.Sleep(5 * time.Millisecond)
				}
			}
			if _, err := srv.Tick(1); err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Tick(0); err != nil {
				t.Fatal(err)
			}
			srv.Close() // end of service: the agent's event stream closes

			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("agent returned error: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("agent did not exit after server close")
			}
			out := srv.Outcome()
			if out.Allocation.NumServed() != 1 || out.TotalPayment() != 10 {
				t.Fatalf("round outcome: served %d paid %g", out.Allocation.NumServed(), out.TotalPayment())
			}
		})
	}
}

// TestRunSwarmValidation exercises the fan-out wrapper's error paths.
func TestRunSwarmValidation(t *testing.T) {
	if err := run("127.0.0.1:1", 0, 10, 3, time.Second, 1, false, 1, "json"); err == nil {
		t.Fatal("want error for zero agents")
	}
	if err := run("127.0.0.1:1", 1, 10, 3, time.Second, 1, false, 1, "carrier-pigeon"); err == nil {
		t.Fatal("want error for unknown wire format")
	}
	// A dead address must surface a dial error from the agent.
	if err := run("127.0.0.1:1", 1, 10, 3, time.Millisecond, 1, false, 1, "json"); err == nil {
		t.Fatal("want dial error")
	}
}

// TestSwarmAgainstInProcessPlatform: several CLI agents join a live
// round concurrently, in each wire format, and all exit cleanly when
// the server closes after the round.
func TestSwarmAgainstInProcessPlatform(t *testing.T) {
	for _, wire := range []string{protocol.WireJSON, protocol.WireBinary} {
		t.Run(wire, func(t *testing.T) {
			srv, err := platform.Listen("127.0.0.1:0", platform.Config{Slots: 3, Value: 30})
			if err != nil {
				t.Fatal(err)
			}

			done := make(chan error, 1)
			go func() { done <- run(srv.Addr(), 5, 15, 2, 50*time.Millisecond, 7, true, 1, wire) }()

			deadline := time.After(5 * time.Second)
			for srv.Stats().BidsAccepted < 5 {
				select {
				case <-deadline:
					t.Fatalf("only %d bids arrived", srv.Stats().BidsAccepted)
				case err := <-done:
					t.Fatalf("swarm exited early: %v", err)
				default:
					time.Sleep(5 * time.Millisecond)
				}
			}
			for !srv.Done() {
				if _, err := srv.Tick(1); err != nil {
					t.Fatal(err)
				}
			}
			srv.Close()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("swarm error: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("swarm did not exit")
			}
			if served := srv.Outcome().Allocation.NumServed(); served == 0 {
				t.Fatal("no tasks served by the swarm")
			}
		})
	}
}
