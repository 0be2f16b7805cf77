package speclint

import (
	"os"
	"os/exec"
	"sync"
	"testing"

	"repro/internal/constraint"
	"repro/internal/dtd"
)

// firstUseEnv marks the child process of TestPrepassConcurrentFirstUse.
const firstUseEnv = "SPECLINT_FIRST_USE_CHILD"

// TestPrepassConcurrentFirstUse runs concurrent first prepasses in a
// fresh process — no earlier Prepass has touched the package state —
// the way two first requests reach a fresh daemon. Under the race
// detector any unsynchronized lazy initialization the prepass reads
// fails the child, and the child also checks that the sound-rule list
// names every sound rule exactly once.
func TestPrepassConcurrentFirstUse(t *testing.T) {
	if os.Getenv(firstUseEnv) != "" {
		concurrentFirstPrepasses(t)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestPrepassConcurrentFirstUse$", "-test.count=1")
	cmd.Env = append(os.Environ(), firstUseEnv+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("concurrent first prepasses failed: %v\n%s", err, out)
	}
}

func concurrentFirstPrepasses(t *testing.T) {
	d, err := dtd.Parse(`<!ELEMENT r (s, s, t?)><!ELEMENT s EMPTY><!ELEMENT t EMPTY>
<!ATTLIST s k CDATA #REQUIRED><!ATTLIST t k CDATA #REQUIRED>`)
	if err != nil {
		t.Fatal(err)
	}
	set, err := constraint.ParseSet("s.k -> s\nt.k -> t\ns.k <= t.k")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rep := Prepass(d, set, nil); rep.SoundError() == nil {
				t.Error("the SL201 spec must be refuted")
			}
		}()
	}
	wg.Wait()
	seen := map[string]bool{}
	sound := 0
	for _, r := range Rules() {
		if r.Sound {
			sound++
		}
	}
	for _, r := range soundRegistry {
		if !r.Sound || seen[r.ID] {
			t.Errorf("sound-rule list repeats or misfiles %s", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) != sound {
		t.Errorf("sound-rule list has %d rules, the registry %d", len(seen), sound)
	}
}
