package profiler

import (
	"encoding/json"
	"fmt"
	"io"
)

// Profile persistence: production deployments profile applications once at
// registration (§4.2) and reuse the data across scheduler restarts. Profiles
// serialize to a versioned JSON document; loading validates structural
// invariants so a corrupted or mismatched file fails fast instead of
// mis-steering the scheduler.

// profileFileVersion guards the on-disk schema.
const profileFileVersion = 1

// profileFile is the serialized form.
type profileFile struct {
	Version int      `json:"version"`
	Profile *Profile `json:"profile"`
}

// Save writes the profile as JSON.
func (p *Profile) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(profileFile{Version: profileFileVersion, Profile: p}); err != nil {
		return fmt.Errorf("profiler: saving %s: %w", p.AppName, err)
	}
	return nil
}

// Load reads a profile previously written by Save and validates it.
func Load(r io.Reader) (*Profile, error) {
	var f profileFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("profiler: loading profile: %w", err)
	}
	if f.Version != profileFileVersion {
		return nil, fmt.Errorf("profiler: profile file version %d, want %d", f.Version, profileFileVersion)
	}
	if f.Profile == nil {
		return nil, fmt.Errorf("profiler: profile file has no profile")
	}
	if err := f.Profile.Validate(); err != nil {
		return nil, err
	}
	f.Profile.buildStackTable()
	return f.Profile, nil
}

// Validate checks the structural invariants the scheduler relies on:
// partition grids, per-kernel arrays sized to the grid, monotone isolated
// latencies and cumulative timelines.
func (p *Profile) Validate() error {
	if p.AppName == "" {
		return fmt.Errorf("profiler: profile has no application name")
	}
	if p.Partitions < 1 || p.DeviceSMs < p.Partitions {
		return fmt.Errorf("profiler: %s: %d partitions on %d SMs", p.AppName, p.Partitions, p.DeviceSMs)
	}
	if len(p.PartitionSMs) != p.Partitions || len(p.Iso) != p.Partitions {
		return fmt.Errorf("profiler: %s: grid arrays sized %d/%d, want %d",
			p.AppName, len(p.PartitionSMs), len(p.Iso), p.Partitions)
	}
	for i := 1; i < p.Partitions; i++ {
		if p.PartitionSMs[i] <= p.PartitionSMs[i-1] {
			return fmt.Errorf("profiler: %s: partition grid not ascending at %d", p.AppName, i)
		}
		if p.Iso[i] > p.Iso[i-1] {
			return fmt.Errorf("profiler: %s: isolated latency increases with SMs at partition %d", p.AppName, i)
		}
	}
	if len(p.Kernels) == 0 {
		return fmt.Errorf("profiler: %s: no kernels", p.AppName)
	}
	for k := range p.Kernels {
		kp := &p.Kernels[k]
		if len(kp.Dur) != p.Partitions || len(kp.Cum) != p.Partitions {
			return fmt.Errorf("profiler: %s: kernel %d arrays sized %d/%d, want %d",
				p.AppName, k, len(kp.Dur), len(kp.Cum), p.Partitions)
		}
		for pt := 0; pt < p.Partitions; pt++ {
			if kp.Dur[pt] <= 0 {
				return fmt.Errorf("profiler: %s: kernel %d non-positive duration at partition %d", p.AppName, k, pt)
			}
			if k > 0 && kp.Cum[pt] < p.Kernels[k-1].Cum[pt] {
				return fmt.Errorf("profiler: %s: cumulative timeline decreases at kernel %d partition %d", p.AppName, k, pt)
			}
		}
		if kp.MaxSMs < 0 || kp.MaxSMs > p.DeviceSMs {
			return fmt.Errorf("profiler: %s: kernel %d MaxSMs %d out of range", p.AppName, k, kp.MaxSMs)
		}
	}
	return nil
}
