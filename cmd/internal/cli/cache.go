package cli

import (
	"flag"
	"os"

	"elag/internal/artifact"
)

// CacheOpts is elag-sim's parsed result-cache configuration. elag-sim
// keys its simulate results exactly the way elag-serve does
// (serve.ResultKey), so pointing -cache-dir at the daemon's store
// directory makes CLI runs and server simulate jobs interchangeable:
// either side's cold run is the other side's warm one.
type CacheOpts struct {
	// Dir is the on-disk store root ("" = caching off for CLI tools,
	// which have no useful in-memory tier across processes).
	Dir string
	// Disable turns caching off regardless of Dir.
	Disable bool
}

// CacheFlags registers -cache-dir and -nocache. The directory defaults
// to $ELAG_CACHE_DIR so a fleet of tools can share one store without
// repeating the flag.
func CacheFlags() *CacheOpts {
	c := &CacheOpts{}
	flag.StringVar(&c.Dir, "cache-dir", os.Getenv("ELAG_CACHE_DIR"),
		"content-addressed result store directory (default $ELAG_CACHE_DIR; empty = no caching)")
	flag.BoolVar(&c.Disable, "nocache", false, "disable the result cache even when -cache-dir is set")
	return c
}

// Open returns the configured artifact store, or nil when caching is
// off. Store-open failures are fatal: a requested cache that silently
// degrades to recomputation hides misconfiguration.
func (c *CacheOpts) Open(tool string) *artifact.Store {
	if c.Disable || c.Dir == "" {
		return nil
	}
	st, err := artifact.Open(artifact.Options{Dir: c.Dir})
	if err != nil {
		Fatal(tool, err)
	}
	return st
}
