package ddpg

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"relm/internal/nn"
)

// SavedAgent is the serializable form of a trained agent: the actor/critic
// parameters plus the options needed to rebuild the architecture. The replay
// memory is not persisted — as in CDBTune, the saved model is the policy,
// and fresh experience is collected on the new environment (§6.6).
type SavedAgent struct {
	Opts   Options
	Actor  nn.Snapshot
	Critic nn.Snapshot
}

// Save serializes the agent (Table 10's "Model Size" is the size of this
// stream).
func (a *Agent) Save(w io.Writer) error {
	a.learner()
	s := SavedAgent{
		Opts:   a.Opts,
		Actor:  a.actor.Snapshot(),
		Critic: a.critic.Snapshot(),
	}
	return gob.NewEncoder(w).Encode(s)
}

// Load reconstructs an agent from a stream produced by Save. Target networks
// are initialized to the loaded parameters.
func Load(r io.Reader) (*Agent, error) {
	var s SavedAgent
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("ddpg: load: %w", err)
	}
	a := NewAgent(s.Opts)
	a.learner()
	if err := a.actor.Restore(s.Actor); err != nil {
		return nil, fmt.Errorf("ddpg: restore actor: %w", err)
	}
	if err := a.critic.Restore(s.Critic); err != nil {
		return nil, fmt.Errorf("ddpg: restore critic: %w", err)
	}
	a.actorTarget.CopyFrom(a.actor)
	a.criticTarget.CopyFrom(a.critic)
	return a, nil
}

// SavedSizeBytes returns the exact serialized size of the agent.
func (a *Agent) SavedSizeBytes() (int, error) {
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}
