package fuzzcorpus

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"a": "go test fuzz v1\nstring(\"<!ELEMENT a EMPTY>\")\nstring(\"x\\ny\")\n",
		"b": "go test fuzz v1\nstring(\"\\xff∪\")\n",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"<!ELEMENT a EMPTY>", "x\ny"}, {"\xff∪"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Load = %q, want %q", got, want)
	}
	if got, err := Load(filepath.Join(dir, "missing")); err != nil || got != nil {
		t.Errorf("missing dir: %q, %v; want an empty corpus", got, err)
	}
	for _, bad := range []string{"string(\"x\")\n", "go test fuzz v1\nint(3)\n", "go test fuzz v1\nstring(x)\n"} {
		if _, err := parse(bad); err == nil {
			t.Errorf("parse(%q) accepted", bad)
		}
	}
}

func TestMutateIsSeeded(t *testing.T) {
	seeds, tokens := []string{"a.x -> a", "<!ELEMENT a EMPTY>"}, []string{"(", "∪", " "}
	a := Mutate(rand.New(rand.NewSource(1)), seeds, tokens, 50)
	b := Mutate(rand.New(rand.NewSource(1)), seeds, tokens, 50)
	if len(a) != 50 || !reflect.DeepEqual(a, b) {
		t.Errorf("Mutate is not a function of its seed: %d variants", len(a))
	}
}
