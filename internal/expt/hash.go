package expt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"sync"
)

// Canonical returns the canonical string form of the options: every field
// in declaration order as key=value, joined with ';'. It is the options
// half of a cache key, so it must be total — a new Options field that is
// not rendered here would make two differently-configured runs collide in
// a result cache. TestCanonicalCoversAllOptionFields pins the field count
// so adding a field without updating this function fails the build gate.
func (o Options) Canonical() string {
	return fmt.Sprintf("short=%t;telemetry=%t;critpath=%t;hybrid=%s;ckptevery=%d;timeline=%t",
		o.Short, o.Telemetry, o.CritPath, o.Hybrid, o.CkptEvery, o.Timeline)
}

// CacheKey returns a stable hex digest identifying one deterministic
// experiment run: the experiment id, the canonicalized options, and the
// code version, joined with NUL separators (none of the parts can contain
// NUL) and hashed with SHA-256. Because the simulator is deterministic, a
// Result depends only on these three inputs — two runs with equal CacheKey
// render byte-identical output, which is what makes memoizing rendered
// results safe (see internal/serve).
func CacheKey(id string, o Options, version string) string {
	sum := sha256.Sum256([]byte(id + "\x00" + o.Canonical() + "\x00" + version))
	return hex.EncodeToString(sum[:])
}

var (
	codeVersionOnce sync.Once
	codeVersion     string
)

// CodeVersion identifies the code that produces results, for use as the
// version part of CacheKey: the VCS revision from the build info (suffixed
// "+dirty" when the working tree was modified), falling back to the main
// module version, and finally to the artifact schema version for builds
// with no embedded build info (e.g. some test binaries). Within one
// process it is constant, so cache entries never mix code versions.
func CodeVersion() string {
	codeVersionOnce.Do(func() {
		codeVersion = fmt.Sprintf("schema%d", ArtifactSchemaVersion)
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		switch {
		case rev != "" && modified == "true":
			codeVersion = rev + "+dirty"
		case rev != "":
			codeVersion = rev
		case bi.Main.Version != "" && bi.Main.Version != "(devel)":
			codeVersion = bi.Main.Version
		}
	})
	return codeVersion
}
