// Package engineflag defines the engine flags the engine-driving commands
// (odin-run, odin-fuzz) share, and the interrupt handler that flushes an
// engine's persistent state on the way out.
package engineflag

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"odin/internal/core"
)

// Register defines the shared engine flags on fs, each bound to its field
// of opts. A -verify tier ParseVerifyMode rejects fails flag parsing.
func Register(fs *flag.FlagSet, opts *core.Options) {
	fs.DurationVar(&opts.RebuildTimeout, "rebuild-timeout", 0, "deadline for one rebuild (0 = none)")
	fs.Func("verify", "engine IR-verification tier: off, boundaries (default), or all (strict check after every optimizer pass)", func(s string) error {
		v, ok := core.ParseVerifyMode(s)
		if !ok {
			return fmt.Errorf("want off, boundaries, or all")
		}
		opts.Verify = v
		return nil
	})
	fs.StringVar(&opts.MetricsAddr, "metrics-addr", "", "serve live telemetry (metrics, /debug/odin, traces, pprof) on this host:port (port 0 = pick a free port)")
	fs.StringVar(&opts.CacheDir, "cache-dir", "", "persistent artifact cache directory (warm-starts fragment compiles across runs)")
	fs.StringVar(&opts.SnapshotPath, "snapshot", "", "engine state snapshot file (restored at startup, rewritten at exit)")
}

// CloseOnSignal runs cleanup when the process receives SIGINT or SIGTERM —
// flushing the persistent artifact store and state snapshot that the normal
// deferred Close would have written — then exits with the conventional
// 128+signal status. The returned function releases the handler so the
// normal exit path does not leave a dangling goroutine claiming signals.
func CloseOnSignal(prog string, cleanup func() error) func() {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "%s: %v, flushing persistence\n", prog, sig)
			if err := cleanup(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: close: %v\n", prog, err)
			}
			code := 130 // 128 + SIGINT
			if sig == syscall.SIGTERM {
				code = 143
			}
			os.Exit(code)
		case <-done:
		}
	}()
	return func() { signal.Stop(sigCh); close(done) }
}
