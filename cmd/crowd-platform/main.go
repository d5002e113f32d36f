// Command crowd-platform runs the networked crowdsourcing platform: a
// TCP server hosting one online-auction round. Smartphone agents connect
// with crowd-agent (or anything speaking the line protocol; see
// internal/protocol). Tasks arrive Poisson per slot and the slot clock
// runs on wall time.
//
// Usage:
//
//	crowd-platform [flags]
//
//	-addr host:port   listen address (default 127.0.0.1:7381)
//	-slots m          round length in slots (default 50)
//	-value v          per-task value ν (default 30)
//	-task-rate λ      mean tasks per slot (default 3)
//	-slot-every d     slot duration, e.g. 500ms (default 1s)
//	-seed n           task arrival seed (default 1)
//	-rounds n         consecutive auction rounds to play (default 1)
//	-checkpoint f     write the auction state to f after every slot and,
//	                  if f already exists at startup, resume from it
//	-completion-deadline n
//	                  require each winner to report its task done within
//	                  n slots of assignment or be defaulted: its task is
//	                  re-allocated and any issued payment clawed back
//	                  (default 0: tracking disabled)
//	-budget B         cap the round's total payments at B: the budgeted
//	                  stage-sampling auction replaces the unbudgeted
//	                  greedy, winners are paid counterfactual critical
//	                  values, and bids past exhaustion are rejected with
//	                  a typed reason (default 0: unbudgeted; incompatible
//	                  with -completion-deadline; see docs/BUDGET.md)
//	-budget-engine e  budget threshold engine: stage (default) | frugal
//	-offline-benchmark
//	                  solve each completed round's offline VCG optimum ω*
//	                  with the interval engine and log it beside the
//	                  realized online welfare — the paper's
//	                  competitive-ratio check, live (default false)
//	-obs-addr a       serve Prometheus metrics, health, trace dumps and
//	                  pprof on this address (e.g. 127.0.0.1:7390); empty
//	                  disables observability
//	-trace f          append structured auction events to f as JSON lines
//	                  (implies the in-process tracer even without -obs-addr)
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"time"

	"dynacrowd/internal/budget"
	"dynacrowd/internal/core"
	"dynacrowd/internal/obs"
	"dynacrowd/internal/platform"
	"dynacrowd/internal/workload"
)

func main() {
	if err := runArgs(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "crowd-platform:", err)
		os.Exit(1)
	}
}

// runArgs parses the command line and runs the platform. A malformed
// flag exits the process with the usage text; a stray positional
// argument is an error, since the flag parser stops at it and would
// drop every flag after it.
func runArgs(args []string) error {
	fs := flag.NewFlagSet("crowd-platform", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7381", "listen address")
	slots := fs.Int("slots", 50, "round length in slots")
	value := fs.Float64("value", 30, "per-task value ν")
	taskRate := fs.Float64("task-rate", 3, "mean tasks per slot (Poisson)")
	slotEvery := fs.Duration("slot-every", time.Second, "slot duration")
	seed := fs.Uint64("seed", 1, "task arrival seed")
	rounds := fs.Int("rounds", 1, "consecutive auction rounds")
	checkpoint := fs.String("checkpoint", "", "checkpoint file (resume if present)")
	completionDeadline := fs.Int("completion-deadline", 0, "slots a winner has to report completion before defaulting (0 disables)")
	obsAddr := fs.String("obs-addr", "", "observability HTTP address (metrics, trace, pprof); empty disables")
	trace := fs.String("trace", "", "append auction trace events to this JSONL file")
	offlineBench := fs.Bool("offline-benchmark", false, "solve each round's offline VCG optimum and log it beside the online welfare")
	budgetFlag := fs.Float64("budget", 0, "hard round budget B (0 = unbudgeted)")
	budgetEngine := fs.String("budget-engine", "stage", "budget threshold engine: stage | frugal")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits instead of returning
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return run(*addr, *slots, *value, *taskRate, *slotEvery, *seed, *rounds, *completionDeadline, *checkpoint, *obsAddr, *trace, *offlineBench, *budgetFlag, *budgetEngine)
}

// buildObs assembles the observability stack for the -obs-addr and
// -trace flags; both empty yields nil (disabled).
func buildObs(obsAddr, trace string) (*obs.Observability, error) {
	if obsAddr == "" && trace == "" {
		return nil, nil
	}
	var sinks []obs.Sink
	if trace != "" {
		f, err := os.OpenFile(trace, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("trace file: %w", err)
		}
		sinks = append(sinks, obs.NewJSONLSink(f))
	}
	return obs.New(obs.Options{Addr: obsAddr, Sinks: sinks})
}

func run(addr string, slots int, value, taskRate float64, slotEvery time.Duration, seed uint64, rounds, completionDeadline int, checkpoint, obsAddr, trace string, offlineBench bool, budgetB float64, budgetEngine string) error {
	// Surface bad -budget knobs as the typed errors before any socket or
	// file is touched; platform.Listen re-checks the combination rules.
	if budgetB != 0 {
		if err := budget.ValidateBudget(budgetB); err != nil {
			return err
		}
		if _, err := budget.EngineByName(budgetEngine); err != nil {
			return err
		}
	}
	observ, err := buildObs(obsAddr, trace)
	if err != nil {
		return err
	}
	cfg := platform.Config{
		Slots:              core.Slot(slots),
		Value:              value,
		Rounds:             rounds,
		Logger:             slog.Default(),
		CompletionDeadline: core.Slot(completionDeadline),
		Budget:             budgetB,
		BudgetEngine:       budgetEngine,
		OfflineBenchmark:   offlineBench,
		Obs:                observ, // server owns it: srv.Close flushes and stops it
	}
	if observ != nil && observ.HTTP != nil {
		log.Printf("observability on http://%s (/metrics /healthz /debug/rounds /debug/pprof)", observ.HTTP.Addr())
	}
	var srv *platform.Server
	if checkpoint != "" {
		if data, readErr := os.ReadFile(checkpoint); readErr == nil {
			srv, err = platform.Resume(addr, cfg, data)
			if err != nil {
				observ.Close()
				return fmt.Errorf("resume from %s: %w", checkpoint, err)
			}
			log.Printf("resumed round from checkpoint %s", checkpoint)
		}
	}
	if srv == nil {
		srv, err = platform.Listen(addr, cfg)
		if err != nil {
			observ.Close()
			return err
		}
	}
	defer srv.Close()
	log.Printf("platform listening on %s: %d slots of %v, ν=%g, task rate %g/slot",
		srv.Addr(), slots, slotEvery, value, taskRate)

	rng := workload.NewRNG(seed)
	err = srv.RunClock(slotEvery, func(s core.Slot) int {
		if checkpoint != "" {
			if data, snapErr := srv.Checkpoint(); snapErr == nil {
				if writeErr := os.WriteFile(checkpoint, data, 0o644); writeErr != nil {
					log.Printf("checkpoint write failed: %v", writeErr)
				}
			}
		}
		n := rng.Poisson(taskRate)
		log.Printf("slot %d: announcing %d task(s)", s, n)
		return n
	})
	if err != nil {
		return err
	}

	st := srv.Stats()
	log.Printf("all %d round(s) complete: %d tasks announced, %d served, total paid %.2f",
		rounds, st.TasksAnnounced, st.TasksServed, st.TotalPaid)
	if completionDeadline > 0 {
		log.Printf("completions: %d reported, %d winners defaulted, %d tasks re-allocated, %d unreplaced, %.2f clawed back",
			st.CompletionsReported, st.WinnersDefaulted, st.TasksReallocated, st.TasksUnreplaced, st.ClawbackTotal)
	}
	if offlineBench && st.OfflineRounds > 0 {
		ratio := 1.0
		if st.OfflineOptimum > 0 {
			ratio = st.TotalWelfare / st.OfflineOptimum
		}
		log.Printf("offline benchmark: optimum %.2f over %d round(s), online welfare %.2f, ratio %.3f",
			st.OfflineOptimum, st.OfflineRounds, st.TotalWelfare, ratio)
	}
	return nil
}
