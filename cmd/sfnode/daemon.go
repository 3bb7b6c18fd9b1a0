package main

import (
	"fmt"
	"log/slog"
	"time"

	"sendforget/internal/mgmt"
	"sendforget/internal/protocol"
	"sendforget/internal/runtime"
)

// newLocalDaemon builds an in-process cluster behind the Substrate
// interface: the backend choice is construction-only (runtime.New);
// everything after it — ticking rounds, snapshots, traffic — is
// substrate-neutral. All substrate access goes through the mgmt.Local
// backend, whose lock serializes the tick loop against management-API churn
// and config reloads on every engine.
func newLocalDaemon(c config, log *slog.Logger) (*daemon, error) {
	kind, err := runtime.ParseEngine(c.engine)
	if err != nil {
		return nil, err
	}
	sub, err := runtime.New(runtime.Config{
		Engine: kind,
		N:      c.local,
		NewCore: func() (protocol.StepCore, error) {
			return newCore(c.proto, c.s, c.dl)
		},
		Loss:   c.loss,
		Seed:   c.seed,
		Period: c.period,
	})
	if err != nil {
		return nil, err
	}
	// Latest-wins, so a burst of reloads never blocks a handler.
	periodCh := make(chan time.Duration, 1)
	backend, err := mgmt.NewLocal(mgmt.LocalOptions{
		Sub: sub, Protocol: c.proto, Engine: string(kind),
		N: c.local, S: c.s, DL: c.dl,
		Seed: c.seed, Period: c.period, Loss: c.loss,
		OnPeriod: func(d time.Duration) {
			for {
				select {
				case periodCh <- d:
					return
				default:
					select {
					case <-periodCh:
					default:
					}
				}
			}
		},
	})
	if err != nil {
		sub.Close()
		return nil, err
	}
	log.Info("sfnode: local cluster",
		"engine", string(kind), "protocol", c.proto, "n", c.local,
		"s", c.s, "dl", c.dl, "loss", c.loss, "period", c.period, "seed", c.seed)
	return &daemon{
		backend:  backend,
		tick:     backend.Tick,
		periodCh: periodCh,
		overlay: func() []any {
			g := backend.Snapshot()
			edges := 0.0
			if g.N() > 0 {
				edges = float64(g.NumEdges()) / float64(g.N())
			}
			return []any{"components", g.ComponentCount(), "edges_per_node", fmt.Sprintf("%.2f", edges)}
		},
		close: sub.Close,
	}, nil
}
