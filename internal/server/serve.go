package server

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
)

// Serve runs the CUBE service on ln until ctx is cancelled, then shuts
// down gracefully: the listener closes immediately, in-flight requests get
// cfg.DrainTimeout to finish, and only then are connections torn down.
// It returns nil after a clean drain; a non-nil error means the listener
// failed or the drain deadline expired (stragglers were cut off).
//
// Connection timeouts (ReadHeaderTimeout, ReadTimeout, WriteTimeout,
// IdleTimeout) come from cfg; nil cfg means DefaultConfig.
func Serve(ctx context.Context, ln net.Listener, cfg *Config) error {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	h := cfg.handler
	if h == nil {
		h = NewHandler(cfg)
	}
	// NewHandler left the self-telemetry snapshotter on cfg when
	// configured; its periodic loop shares the server's lifetime. Serve
	// returns only once the loop has stopped, so no snapshot is still
	// writing into the store after it.
	if cfg.self != nil && cfg.SelfInterval > 0 {
		loopCtx, stop := context.WithCancel(ctx)
		loopDone := make(chan struct{})
		go func() {
			defer close(loopDone)
			cfg.self.Loop(loopCtx)
		}()
		defer func() {
			stop()
			<-loopDone
		}()
	}
	var errorLog *log.Logger
	if cfg.Logger != nil {
		errorLog = slog.NewLogLogger(cfg.Logger.Handler(), slog.LevelError)
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: cfg.ReadHeaderTimeout,
		ReadTimeout:       cfg.ReadTimeout,
		WriteTimeout:      cfg.WriteTimeout,
		IdleTimeout:       cfg.IdleTimeout,
		ErrorLog:          errorLog,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	dctx := context.Background()
	if cfg.DrainTimeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(dctx, cfg.DrainTimeout)
		defer cancel()
	}
	if cfg.Logger != nil {
		cfg.Logger.Info("shutting down, draining in-flight requests",
			slog.Duration("limit", cfg.DrainTimeout))
	}
	if err := srv.Shutdown(dctx); err != nil {
		srv.Close()
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	return nil
}
