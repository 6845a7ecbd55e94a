package serve

import (
	"bytes"
	"testing"
)

// FuzzLoadState pins the recovery contract of the state decoder: a
// state file is adversarial input (torn by a crash, hand-edited, or
// bit-flipped on a dying disk), so arbitrary bytes must produce an
// error — never a panic — and a successful load must round-trip back
// through SaveState.
func FuzzLoadState(f *testing.F) {
	// A genuine checkpoint as the seed the mutator works from.
	s, err := New(fuzzModel(f), Options{})
	if err != nil {
		f.Fatal(err)
	}
	var genuine bytes.Buffer
	if err := s.SaveState(&genuine); err != nil {
		f.Fatal(err)
	}
	f.Add(genuine.Bytes())
	f.Add([]byte(`{"version":2,"group":"SFWB","drives":{}}`))
	f.Add([]byte(`{"version":2,"group":"SFWB","drives":{"D1":{"rolling":{"last_day":3},"consecutive":1}}}`))
	f.Add([]byte(`{"version":1,"group":"SFWB","drives":{"D1":{"last_day":2,"observed":3}}}`))
	f.Add(genuine.Bytes()[:genuine.Len()/2]) // torn checkpoint
	f.Add([]byte(`{"version":2,"group":"SFWB","drives":{"":{}}}`))
	f.Add([]byte("not json at all"))
	f.Add([]byte(nil))
	f.Add([]byte(`{"version":3,"group":"SFWB","drives":{"D1":{"rolling":{"last_day":3},"quarantine":{"day":3,"reason":"bad-value","err":"x"}}}}`))
	f.Add([]byte(`{"version":3,"group":"SFWB","drives":{"D1":{"quarantine":{"day":-1,"reason":"unknown"}}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := New(fuzzModel(t), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LoadState(bytes.NewReader(data)); err != nil {
			return // rejected cleanly — the only acceptable failure mode
		}
		// Accepted states must save again without error.
		if err := s.SaveState(bytes.NewBuffer(nil)); err != nil {
			t.Fatalf("accepted state cannot be re-saved: %v", err)
		}
	})
}
