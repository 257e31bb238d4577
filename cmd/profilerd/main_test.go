package main

import (
	"bytes"
	"flag"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseMembers(t *testing.T) {
	got, err := parseMembers(" nodeA=host1:7100, nodeB=host2:7100 ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "nodeA" || got[0].Addr != "host1:7100" ||
		got[1].Name != "nodeB" || got[1].Addr != "host2:7100" {
		t.Errorf("parsed %+v", got)
	}
	for _, bad := range []string{"", ",", "nodeA", "nodeA=", "=host:1", "a=x,a=y"} {
		if _, err := parseMembers(bad); err == nil {
			t.Errorf("-join %q accepted", bad)
		}
	}
}

// runArgs runs the daemon's start-up with args on a fresh flag set.
func runArgs(t *testing.T, args ...string) error {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	t.Cleanup(func() { os.Args, flag.CommandLine = oldArgs, oldFlags })
	os.Args = append([]string{"profilerd"}, args...)
	flag.CommandLine = flag.NewFlagSet("profilerd", flag.ContinueOnError)
	return run()
}

// TestClusterNeedsStateTier: a -cluster member moves devices only
// through the shared state tier, so it refuses to start without
// -state-addr — also with a local -state-dir, which other members cannot
// read — and the error names the state tier. The check runs before the
// bundle is loaded, so the missing bundle here is never reached.
func TestClusterNeedsStateTier(t *testing.T) {
	for _, args := range [][]string{
		{"-cluster", "127.0.0.1:0", "-bundle", "missing.gz"},
		{"-cluster", "127.0.0.1:0", "-bundle", "missing.gz", "-state-dir", t.TempDir()},
	} {
		err := runArgs(t, args...)
		if err == nil || !strings.Contains(err.Error(), "state tier") || !strings.Contains(err.Error(), "-state-addr") {
			t.Errorf("profilerd %v = %v, want a refusal naming the state tier and -state-addr", args, err)
		}
	}
}

// TestOpenStateDirReportsDroppedLegacy: opening a -state-dir that holds
// an earlier build's .state.gz files logs how many were dropped; a clean
// directory logs nothing.
func TestOpenStateDirReportsDroppedLegacy(t *testing.T) {
	dir := t.TempDir()
	for _, dev := range []string{"10.0.0.1", "10.0.0.2"} {
		if err := os.WriteFile(filepath.Join(dir, dev+".state.gz"), []byte{0x1f, 0x8b}, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	logger := log.New(&out, "", 0)
	if _, err := openStateDir(logger, dir); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dropped 2 .state.gz files") {
		t.Errorf("log = %q, want the 2 dropped files reported", out.String())
	}
	out.Reset()
	if _, err := openStateDir(logger, dir); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("reopening the swept dir logged %q, want nothing", out.String())
	}
}
