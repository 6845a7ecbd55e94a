// Package features implements MFPA's feature engineering: the SFWB
// feature-group sets of Table V, vector extraction from prepared
// telemetry frames (and single records), per-vendor firmware label
// encoding, and the construction of labelled training sample sets
// (flat, and windowed for sequence models).
package features

import "strings"

// Group selects which feature families a model sees (Table V).
type Group struct {
	SMART    bool // S: the 16 SMART attributes of Table II
	Firmware bool // F: the label-encoded firmware version
	WEvents  bool // W: the 5 selected WindowsEvent counters
	BSOD     bool // B: the 22 stop-code counters plus the total (23)
}

// The seven feature groups evaluated by the paper (Table V).
var (
	GroupSFWB = Group{SMART: true, Firmware: true, WEvents: true, BSOD: true}
	GroupSFW  = Group{SMART: true, Firmware: true, WEvents: true}
	GroupSFB  = Group{SMART: true, Firmware: true, BSOD: true}
	GroupSF   = Group{SMART: true, Firmware: true}
	GroupS    = Group{SMART: true}
	GroupW    = Group{WEvents: true}
	GroupB    = Group{BSOD: true}
)

// AllGroups returns the paper's seven groups in Table V order.
func AllGroups() []Group {
	return []Group{GroupSFWB, GroupSFW, GroupSFB, GroupSF, GroupS, GroupW, GroupB}
}

// String names the group as in Table V (e.g. "SFWB", "SF", "B").
func (g Group) String() string {
	var b strings.Builder
	if g.SMART {
		b.WriteByte('S')
	}
	if g.Firmware {
		b.WriteByte('F')
	}
	if g.WEvents {
		b.WriteByte('W')
	}
	if g.BSOD {
		b.WriteByte('B')
	}
	if b.Len() == 0 {
		return "∅"
	}
	return b.String()
}

// Empty reports whether the group selects no features.
func (g Group) Empty() bool {
	return !g.SMART && !g.Firmware && !g.WEvents && !g.BSOD
}

// ParseGroup resolves a Table V group name ("SFWB", "SF", "B", …).
func ParseGroup(name string) (Group, bool) {
	for _, g := range AllGroups() {
		if g.String() == name {
			return g, true
		}
	}
	return Group{}, false
}
