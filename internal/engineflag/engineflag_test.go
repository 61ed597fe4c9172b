package engineflag

import (
	"flag"
	"io"
	"testing"
	"time"

	"odin/internal/core"
)

// TestRegister: the shared flags land in the matching core.Options fields,
// and a bad -verify tier fails parsing rather than a silent default.
func TestRegister(t *testing.T) {
	var o core.Options
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	Register(fs, &o)
	err := fs.Parse([]string{"-rebuild-timeout", "2s", "-verify", "all",
		"-metrics-addr", "127.0.0.1:0", "-cache-dir", "c", "-snapshot", "s"})
	if err != nil {
		t.Fatal(err)
	}
	want := core.Options{RebuildTimeout: 2 * time.Second, Verify: core.VerifyAll,
		MetricsAddr: "127.0.0.1:0", CacheDir: "c", SnapshotPath: "s"}
	if o.RebuildTimeout != want.RebuildTimeout || o.Verify != want.Verify ||
		o.MetricsAddr != want.MetricsAddr || o.CacheDir != want.CacheDir || o.SnapshotPath != want.SnapshotPath {
		t.Fatalf("options = %+v, want %+v", o, want)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Register(fs, &core.Options{})
	if err := fs.Parse([]string{"-verify", "sometimes"}); err == nil {
		t.Fatal("-verify sometimes accepted")
	}
}
