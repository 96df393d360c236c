package perm

import (
	"testing"
)

// FuzzLehmerRoundTrip feeds arbitrary byte strings interpreted as
// Lehmer digits; valid codes must round-trip, invalid ones must be
// rejected without panicking.
func FuzzLehmerRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 3, 2})
	f.Fuzz(func(t *testing.T, digits []byte) {
		if len(digits) > 32 {
			digits = digits[:32]
		}
		code := make([]int, len(digits))
		valid := true
		for i, d := range digits {
			code[i] = int(d)
			if code[i] > i {
				valid = false
			}
		}
		p, err := FromLehmerCode(code)
		if !valid {
			if err == nil {
				t.Fatalf("invalid code %v accepted", code)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid code %v rejected: %v", code, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("reconstructed perm invalid: %v", err)
		}
		back := p.LehmerCode()
		for i := range code {
			if back[i] != code[i] {
				t.Fatalf("round trip: %v → %v → %v", code, p, back)
			}
		}
	})
}

// FuzzValidate must never panic on arbitrary int slices.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{255, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		p := make(Perm, len(raw))
		for i, b := range raw {
			p[i] = int(b) - 128
		}
		err := p.Validate()
		// If Validate accepts, every derived operation must be safe.
		if err == nil {
			_ = p.Positions()
			_ = p.InversionCount()
			_ = p.LehmerCode()
		}
	})
}
