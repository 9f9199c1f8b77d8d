package main

import "testing"

func TestRunScenarios(t *testing.T) {
	if err := run("b_tree", 8, 23, 0, "drop", 0, false, 4, true, true, 4); err != nil {
		t.Fatal(err)
	}
	if err := run("queue", 9, 29, 0, "apply", 0, false, 2, false, true, 1); err != nil {
		t.Fatal(err)
	}
	if err := run("txpair", 2, 5, 0, "random", 2, true, 0, false, false, 1); err != nil {
		t.Fatal(err)
	}
	if err := run("txpair", 2, 5, 0, "random", 2, false, 2, false, false, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunServerScenarios(t *testing.T) {
	if err := run("redis", 4, 31, 0, "drop", 0, false, 2, true, true, 2); err != nil {
		t.Fatal(err)
	}
	if err := run("memcached", 3, 37, 0, "drop", 0, false, 2, true, true, 4); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("nope", 5, 1, 0, "drop", 0, false, 1, false, false, 1); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run("b_tree", 5, 1, 0, "sideways", 0, false, 1, false, false, 1); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run("b_tree", 5, 1, 0, "random", 0, false, 1, false, false, 1); err == nil {
		t.Error("random policy accepted with no seeds")
	}
	if err := run("b_tree", 5, 1, 0, "drop", 0, false, 0, true, false, 1); err == nil {
		t.Error("reducers accepted with the serial engine")
	}
	if err := run("b_tree", 5, 1, 0, "drop", 0, false, 0, false, false, 4); err == nil {
		t.Error("segments accepted with the serial engine")
	}
}
