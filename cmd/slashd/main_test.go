package main

import (
	"strings"
	"testing"
)

// TestCheckModeFlags pins which explicitly set flags each mode rejects: a
// flag the mode never reads is an error naming it, never a silent no-op. The
// accepted rows are the README quickstart and scripts/multiproc-smoke.sh
// command lines.
func TestCheckModeFlags(t *testing.T) {
	type flagCase struct {
		name         string
		listen, join bool
		flags        []string
		reject       string // flag the error must name; "" = accepted
	}
	cases := []flagCase{
		{"plain run", false, false, []string{"workload", "nodes", "threads", "records", "seed", "epoch", "dump", "metrics", "metrics-addr", "state-addr", "state-readers", "throttle", "results", "checkpoint-dir", "checkpoint-interval", "credits"}, ""},
		{"plain run rank", false, false, []string{"workload", "rank"}, "rank"},
		{"quickstart coordinator", true, false, []string{"listen", "workload", "nodes", "threads", "records"}, ""},
		{"smoke coordinator", true, false, []string{"listen", "workload", "nodes", "threads", "records", "seed", "epoch", "dump", "checkpoint-interval", "credits"}, ""},
		{"coordinator checkpoint-dir", true, false, []string{"listen", "checkpoint-dir"}, "checkpoint-dir"},
		{"coordinator rank", true, false, []string{"listen", "rank"}, "rank"},
		{"quickstart worker", false, true, []string{"join", "rank", "checkpoint-dir"}, ""},
		{"worker dump", false, true, []string{"join", "rank", "dump"}, "dump"},
		{"worker records", false, true, []string{"join", "rank", "records"}, "records"},
		{"worker checkpoint-interval", false, true, []string{"join", "checkpoint-interval"}, "checkpoint-interval"},
	}
	for _, f := range inProcessOnly {
		cases = append(cases,
			flagCase{"coordinator " + f, true, false, []string{"listen", f}, f},
			flagCase{"worker " + f, false, true, []string{"join", "rank", f}, f})
	}
	for _, f := range runSpec {
		cases = append(cases, flagCase{"worker spec " + f, false, true, []string{"join", f}, f})
	}
	for _, tc := range cases {
		set := map[string]bool{}
		for _, f := range tc.flags {
			set[f] = true
		}
		err := checkModeFlags(tc.listen, tc.join, set)
		switch {
		case tc.reject == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.reject != "" && err == nil:
			t.Errorf("%s: accepted, want -%s rejected", tc.name, tc.reject)
		case tc.reject != "" && !strings.Contains(err.Error(), "-"+tc.reject+" "):
			t.Errorf("%s: error %q does not name -%s", tc.name, err, tc.reject)
		}
	}
}
