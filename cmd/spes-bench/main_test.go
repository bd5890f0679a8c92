package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"spes/internal/bench"
)

func TestRun(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		code    int
		stderr  string                                             // substring expected on stderr
		checkJS func(t *testing.T, out map[string]json.RawMessage) // run on stdout when set
	}{
		{name: "no mode", args: nil, code: 2, stderr: "use -table 1, -table 2, -figure 7, or -all"},
		{name: "table 3", args: []string{"-table", "3"}, code: 2, stderr: "-table 3"},
		{name: "figure 8", args: []string{"-figure", "8"}, code: 2, stderr: "-figure 8"},
		{name: "negative scale", args: []string{"-table", "2", "-scale", "-1"}, code: 2, stderr: "-scale -1"},
		{name: "NaN scale", args: []string{"-table", "2", "-scale", "NaN"}, code: 2, stderr: "-scale NaN"},
		{name: "infinite scale", args: []string{"-figure", "7", "-scale", "+Inf"}, code: 2, stderr: "-scale +Inf"},
		{name: "unknown flag", args: []string{"-batch"}, code: 2, stderr: "-batch"},
		{
			name: "table 1 json", args: []string{"-table", "1", "-json"}, code: 0,
			checkJS: func(t *testing.T, out map[string]json.RawMessage) {
				var rows []struct {
					Verifier          bench.VerifierID
					Supported, Proved int
				}
				if err := json.Unmarshal(out["table1"], &rows); err != nil {
					t.Fatalf("table1: %v", err)
				}
				if len(rows) != len(bench.Table1Verifiers) {
					t.Fatalf("table1 has %d rows, want %d", len(rows), len(bench.Table1Verifiers))
				}
				spes := rows[len(rows)-1]
				if spes.Verifier != bench.SPES || spes.Supported != 148 || spes.Proved != 136 {
					t.Fatalf("last row %q: supported=%d proved=%d, want SPES with 148 and 136",
						spes.Verifier, spes.Supported, spes.Proved)
				}
			},
		},
		{
			name: "table 2 json", args: []string{"-table", "2", "-scale", "0.02", "-json"}, code: 0,
			checkJS: func(t *testing.T, out map[string]json.RawMessage) {
				var rows []bench.Table2Row
				if err := json.Unmarshal(out["table2"], &rows); err != nil || len(rows) == 0 {
					t.Fatalf("table2: %d rows, err %v", len(rows), err)
				}
				if _, ok := out["table1"]; ok {
					t.Fatal("-table 2 also emitted table1")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("stderr lacks %q:\n%s", tc.stderr, stderr.String())
			}
			if tc.checkJS != nil {
				var out map[string]json.RawMessage
				if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
					t.Fatalf("stdout is not JSON: %v\n%s", err, stdout.String())
				}
				tc.checkJS(t, out)
			}
		})
	}
}
