package main

import "testing"

func TestRunExperiments(t *testing.T) {
	for _, exp := range []string{"table1", "table5", "fig11", "reorg"} {
		if err := run(exp, 200, 200, 200); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
	// Names outside the list are errors, including the engine measurements
	// that the pmledger benchmark and the go test benchmarks own.
	for _, exp := range []string{"nope", "hotpath", "parallel", "crash", "serve", "pipeline"} {
		if err := run(exp, 10, 10, 10); err == nil {
			t.Errorf("unknown experiment %q accepted", exp)
		}
	}
}
