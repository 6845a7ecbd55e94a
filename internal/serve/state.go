package serve

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/atomicio"
	"repro/internal/features"
)

// Consumer machines reboot constantly, so the scorer's per-drive state
// must survive process restarts: SaveState serialises the rolling
// feature state, flag runs, alarm latches and quarantine entries;
// LoadState restores them into a freshly constructed scorer (the model
// itself travels separately, via modelio).

// stateVersion guards the state layout. Version 3 is version 2 plus an
// optional per-drive quarantine entry, so a restart does not
// un-quarantine a corrupt drive. Version 2 carries the full rolling
// state (the previous raw daily observation, gap tracking, and
// diagnostic rings) so a restart mid-gap mean-fills identically to an
// uninterrupted run; version 1 held only the cumulates. All three are
// read.
const stateVersion = 3

// persistedState is the on-disk form of the scorer's drive map. JSON
// encodes map keys sorted, so the file does not depend on sharding.
type persistedState struct {
	Version int                       `json:"version"`
	Group   string                    `json:"group"`
	Drives  map[string]persistedDrive `json:"drives"`
}

// persistedDrive mirrors driveRoll. The version-1 fields (LastDay,
// CumW, CumB, Observed) remain readable for old state files.
type persistedDrive struct {
	Rolling     *features.RollingSnapshot `json:"rolling,omitempty"`
	Consecutive int                       `json:"consecutive"`
	Alarmed     bool                      `json:"alarmed"`
	Quarantine  *persistedQuarantine      `json:"quarantine,omitempty"`

	LastDay  int       `json:"last_day,omitempty"`
	CumW     []float64 `json:"cum_w,omitempty"`
	CumB     []float64 `json:"cum_b,omitempty"`
	Observed int       `json:"observed,omitempty"`
}

// persistedQuarantine is a QuarantineEntry without the serial number
// (the map key carries it); Reason is the ledger name.
type persistedQuarantine struct {
	Day    int    `json:"day"`
	Reason string `json:"reason"`
	Err    string `json:"err"`
}

// parseReason inverts QuarantineReason.String for the non-healthy
// reasons.
func parseReason(name string) (QuarantineReason, bool) {
	for r := QuarantineBadRecord; r <= QuarantineUnknownFirmware; r++ {
		if r.String() == name {
			return r, true
		}
	}
	return QuarantineNone, false
}

// SaveState writes the scorer's accumulated per-drive state to w.
func (s *Scorer) SaveState(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := persistedState{
		Version: stateVersion,
		Group:   s.model.Config.Group.String(),
		Drives:  make(map[string]persistedDrive),
	}
	for i := range s.shards {
		for sn, dr := range s.shards[i].drives {
			snap := dr.roll.Snapshot()
			pd := persistedDrive{Rolling: &snap, Consecutive: dr.consecutive, Alarmed: dr.alarmed}
			if dr.q.Reason != QuarantineNone {
				pd.Quarantine = &persistedQuarantine{Day: dr.q.Day, Reason: dr.q.Reason.String(), Err: dr.q.Err}
			}
			out.Drives[sn] = pd
		}
	}
	return json.NewEncoder(w).Encode(&out)
}

// SaveStateFile atomically checkpoints the scorer's state to path:
// staged in a same-directory temp file, fsynced, and renamed into
// place, so the machine powering off mid-save — the normal consumer
// failure mode — leaves the previous checkpoint intact.
func (s *Scorer) SaveStateFile(path string) error {
	return atomicio.WriteFile(path, s.SaveState)
}

// LoadStateFile restores state from a SaveStateFile checkpoint.
func (s *Scorer) LoadStateFile(path string) error {
	f, err := atomicio.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.LoadState(f)
}

// LoadState restores per-drive state saved by SaveState (any of
// versions 1–3). The feature group must match the current model's, and
// the scorer must not have observed or replayed anything yet (restore
// happens at startup). A rejected state leaves the scorer untouched.
func (s *Scorer) LoadState(r io.Reader) error {
	var in persistedState
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return fmt.Errorf("serve: decode state: %w", err)
	}
	if in.Version < 1 || in.Version > stateVersion {
		return fmt.Errorf("serve: state version %d, want 1 to %d", in.Version, stateVersion)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if in.Group != s.model.Config.Group.String() {
		return fmt.Errorf("serve: state was saved for group %s, scorer runs %s", in.Group, s.model.Config.Group)
	}
	if s.started {
		return fmt.Errorf("serve: cannot restore state after observations began")
	}
	drives := make(map[string]*driveRoll, len(in.Drives))
	for sn, pd := range in.Drives {
		if sn == "" {
			return fmt.Errorf("serve: state contains empty serial number")
		}
		if pd.Consecutive < 0 {
			return fmt.Errorf("serve: state for %s is corrupt", sn)
		}
		snap := pd.Rolling
		if snap == nil {
			// Version-1 layout: reconstruct the rolling state from the
			// cumulates alone. The previous raw observation is unknown,
			// so a fillable gap right after the restart is refused by
			// the rolling state (and quarantines the drive).
			if pd.LastDay < -1 || pd.Observed < 0 {
				return fmt.Errorf("serve: state for %s is corrupt", sn)
			}
			snap = &features.RollingSnapshot{
				LastDay:  pd.LastDay,
				Observed: pd.Observed,
				Rows:     pd.Observed,
				CumW:     pd.CumW,
				CumB:     pd.CumB,
			}
		}
		roll, err := features.RollingFromSnapshot(*snap)
		if err != nil {
			return fmt.Errorf("serve: state for %s: %w", sn, err)
		}
		dr := &driveRoll{roll: roll, consecutive: pd.Consecutive, alarmed: pd.Alarmed}
		if q := pd.Quarantine; q != nil {
			reason, ok := parseReason(q.Reason)
			if !ok || in.Version < 3 {
				return fmt.Errorf("serve: state for %s has a bad quarantine entry", sn)
			}
			dr.q = QuarantineEntry{SerialNumber: sn, Day: q.Day, Reason: reason, Err: q.Err}
		}
		drives[sn] = dr
	}
	for sn, dr := range drives {
		s.shards[s.shardOf(sn)].drives[sn] = dr
	}
	return nil
}
