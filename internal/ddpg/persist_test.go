package ddpg

import (
	"bytes"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	agent := NewAgent(Options{StateDim: 6, ActionDim: 3, Seed: 1})
	// Train a little so the weights are non-trivial.
	for i := 0; i < 40; i++ {
		s := make([]float64, 6)
		s[0] = float64(i%5) / 5
		agent.Observe(Transition{State: s, Action: []float64{0.1, -0.2, 0.3}, Reward: s[0], NextState: s})
	}
	for i := 0; i < 20; i++ {
		agent.Train()
	}

	var buf bytes.Buffer
	if err := agent.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	state := []float64{0.2, 0.4, 0.6, 0.8, 1.0, 0.5}
	a1 := agent.Act(state, false)
	a2 := loaded.Act(state, false)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("loaded policy diverges: %v vs %v", a1, a2)
		}
	}
}

func TestSavedSizeBytes(t *testing.T) {
	agent := NewAgent(Options{StateDim: StateDim, ActionDim: 4, Seed: 2})
	n, err := agent.SavedSizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatal("empty serialization")
	}
	// gob float64 weights: the stream should be within a small factor of the
	// float32 estimate used by Table 10.
	if n < agent.ModelSizeBytes()/2 {
		t.Fatalf("serialized size %d implausibly small vs %d params", n, agent.ModelSizeBytes())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestLoadedAgentContinuesTraining(t *testing.T) {
	agent := NewAgent(Options{StateDim: 4, ActionDim: 2, Seed: 3})
	var buf bytes.Buffer
	if err := agent.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		s := []float64{0.1, 0.2, 0.3, 0.4}
		loaded.Observe(Transition{State: s, Action: []float64{0, 0}, Reward: 1, NextState: s})
	}
	loaded.Train() // must not panic; the replay/optimizer state is fresh
}
