// Package buildinfo exposes the build stamp — module version, VCS
// revision, and toolchain — that every CLI's -version flag prints and
// that trace exports, the daemon's status page, and its telemetry
// embed, so any artifact this repository produces can be traced back
// to the exact build that produced it.
package buildinfo

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Info is the build stamp.
type Info struct {
	// Module is the main module path.
	Module string `json:"module"`
	// Version is the module version ("(devel)" for local builds).
	Version string `json:"version"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Revision is the VCS commit hash, "unknown" when the build
	// carried no VCS stamp (e.g. go test binaries).
	Revision string `json:"revision"`
	// Time is the commit timestamp (RFC 3339), empty when unstamped.
	Time string `json:"time,omitempty"`
	// Dirty reports uncommitted changes at build time.
	Dirty bool `json:"dirty,omitempty"`
}

// Get reads the running binary's build stamp via debug.ReadBuildInfo.
// It never fails: missing pieces degrade to "unknown"/"(devel)".
func Get() Info {
	info := Info{
		Module:    "repro",
		Version:   "(devel)",
		GoVersion: runtime.Version(),
		Revision:  "unknown",
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	if bi.Main.Path != "" {
		info.Module = bi.Main.Path
	}
	if bi.Main.Version != "" {
		info.Version = bi.Main.Version
	}
	if bi.GoVersion != "" {
		info.GoVersion = bi.GoVersion
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.Revision = s.Value
		case "vcs.time":
			info.Time = s.Value
		case "vcs.modified":
			info.Dirty = s.Value == "true"
		}
	}
	return info
}

// String renders the stamp the way the -version flags print it:
//
//	repro (devel) go1.22.1 rev 0123abcd (dirty)
func (i Info) String() string {
	rev := i.Revision
	if len(rev) > 12 {
		rev = rev[:12]
	}
	s := fmt.Sprintf("%s %s %s rev %s", i.Module, i.Version, i.GoVersion, rev)
	if i.Dirty {
		s += " (dirty)"
	}
	return s
}
