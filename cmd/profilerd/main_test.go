package main

import (
	"flag"
	"os"
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
