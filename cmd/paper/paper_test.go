package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// elapsedLine is verify's wall-clock line, the only stdout that varies
// between runs.
var elapsedLine = regexp.MustCompile(`(?m)^elapsed: .*\n`)

// The goldens under testdata are the stdout (and, where pinned, stderr)
// of the single-purpose commands this one replaced, captured before they
// were deleted; they are never regenerated from this command. verify's
// memo counters are pinned only at -parallel 1: with more workers they
// depend on which worker reaches a state first.
func TestSubcommandsMatchGoldens(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
		code   int
		stderr bool
	}{
		{"table1", []string{"table1"}, 0, false},
		{"tolerance", []string{"tolerance"}, 0, false},
		{"overhead", []string{"overhead"}, 0, false},
		{"drift", []string{"drift"}, 0, false},
		{"scenarios_all", []string{"scenarios", "-fig", "all"}, 0, false},
		{"scenarios_all_notrace", []string{"scenarios", "-fig", "all", "-trace=false"}, 0, false},
		{"verify_can_k2", []string{"verify", "-policy", "can", "-k", "2"}, 2, false},
		{"verify_minorcan_k2_crash", []string{"verify", "-policy", "minorcan", "-k", "2", "-crash"}, 2, false},
		{"verify_can_k2_crash_p1", []string{"verify", "-policy", "can", "-k", "2", "-crash", "-parallel", "1"}, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			compareGolden(t, tc.golden+".golden", elapsedLine.ReplaceAllString(stdout.String(), ""))
			if tc.stderr {
				compareGolden(t, tc.golden+".stderr.golden", stderr.String())
			}
		})
	}
}

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if w := elapsedLine.ReplaceAllString(string(want), ""); got != w {
		t.Errorf("%s differs\n--- got\n%s\n--- want\n%s", name, got, w)
	}
}

// Bad arguments fail closed: one "paper <subcommand>: " line on stderr,
// nothing on stdout, a non-zero exit and no panic.
func TestBadArgumentsFailClosed(t *testing.T) {
	for _, args := range [][]string{
		{"overhead", "-m", "2"},
		{"overhead", "-m", "3,,4"},
		{"scenarios", "-m", "2", "-fig", "major-new"},
		{"scenarios", "-m", "2", "-fig", "can5"},
		{"scenarios", "-m", "2", "-fig", "all"},
		{"scenarios", "-m", "2", "-fig", "4"},
		{"scenarios", "-fig", "6"},
		{"drift", "-frames", "-1"},
		{"drift", "-frames", "0"},
		{"table1", "-ber", "x"},
		{"table1", "-nodes", "0"},
		{"tolerance", "-ber", "1e-3,,1e-2"},
		{"verify", "-policy", "foo"},
		{"verify", "-stations", "1"},
		{"table1", "extra"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 1 {
				t.Errorf("exit %d, want 1", code)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty:\n%s", stdout.String())
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "paper "+args[0]+": ") || strings.Count(msg, "\n") != 1 {
				t.Errorf("stderr is not one %q line:\n%s", "paper "+args[0]+": ", msg)
			}
		})
	}
}

// A bad -m is only an error for the figures that read it: the m-free
// ones print exactly what they print at the default m.
func TestScenariosIgnoreMWhenUnused(t *testing.T) {
	var want, got, stderr bytes.Buffer
	if code := run([]string{"scenarios", "-fig", "1a"}, &want, &stderr); code != 0 {
		t.Fatalf("-fig 1a: exit %d; stderr:\n%s", code, stderr.String())
	}
	if code := run([]string{"scenarios", "-fig", "1a", "-m", "2"}, &got, &stderr); code != 0 {
		t.Fatalf("-fig 1a -m 2: exit %d; stderr:\n%s", code, stderr.String())
	}
	if got.String() != want.String() || got.Len() == 0 {
		t.Errorf("-fig 1a -m 2 printed\n%s\nwant\n%s", got.String(), want.String())
	}
}

// Usage errors exit 2, as the flag package's own do; -h exits 0.
func TestUsageExits(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"nosuch"}, 2},
		{[]string{"table1", "-nosuch"}, 2},
		{[]string{"drift", "-h"}, 0},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%q: exit %d, want %d", tc.args, code, tc.code)
		}
	}
}
