// Package mpiwrap reproduces the paper's MPIWRAP library (§III-C): a
// PMPI-style wrapper around MPI_File_{open,close} that (a) injects MPI-IO
// hints from a configuration file, per file-name pattern, and (b) applies
// the workflow modification of Figure 3 behind the application's back —
// when a file is "closed" it is kept open internally, and really closed
// (waiting for cache synchronisation) only when the next file with the
// same base name is opened, or at MPI_Finalize.
package mpiwrap

import (
	"bufio"
	"fmt"
	"strings"

	"repro/internal/mpi"
	"repro/internal/mpiio"
)

// Rule maps a file-name pattern to hints and workflow options.
type Rule struct {
	Pattern    string   // prefix pattern; a trailing '*' matches any suffix
	Hints      mpi.Info // hints injected at open
	DeferClose bool     // apply the Figure 3 deferred-close transformation
}

// Matches reports whether name matches the rule's pattern.
func (r Rule) Matches(name string) bool {
	if strings.HasSuffix(r.Pattern, "*") {
		return strings.HasPrefix(name, strings.TrimSuffix(r.Pattern, "*"))
	}
	return name == r.Pattern
}

// Config is a parsed MPIWRAP configuration.
type Config struct {
	Rules []Rule
}

// Find returns the first matching rule for name, or nil.
func (c *Config) Find(name string) *Rule {
	for i := range c.Rules {
		if c.Rules[i].Matches(name) {
			return &c.Rules[i]
		}
	}
	return nil
}

// ParseConfig reads the MPIWRAP configuration format:
//
//	# comment
//	[file "ckpt*"]
//	e10_cache = enable
//	e10_cache_flush_flag = flush_immediate
//	defer_close = true
//
// Sections apply to files whose (base) name matches the quoted pattern.
func ParseConfig(text string) (*Config, error) {
	cfg := &Config{}
	var cur *Rule
	sc := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("mpiwrap: line %d: unterminated section", lineNo)
			}
			inner := strings.TrimSpace(line[1 : len(line)-1])
			rest, ok := strings.CutPrefix(inner, "file")
			q := strings.TrimSpace(rest) // one quoted, non-empty pattern holding no quote
			if !ok || q == rest || len(q) < 3 || q[0] != '"' || q[len(q)-1] != '"' || strings.Count(q, `"`) != 2 {
				return nil, fmt.Errorf("mpiwrap: line %d: section %q is not [file \"<pattern>\"]", lineNo, inner)
			}
			pat := q[1 : len(q)-1]
			cfg.Rules = append(cfg.Rules, Rule{Pattern: pat, Hints: mpi.Info{}})
			cur = &cfg.Rules[len(cfg.Rules)-1]
			continue
		}
		k, v, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("mpiwrap: line %d: expected key = value", lineNo)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if cur == nil {
			return nil, fmt.Errorf("mpiwrap: line %d: key outside a [file] section", lineNo)
		}
		if k == "defer_close" {
			if v != "true" && v != "false" {
				return nil, fmt.Errorf("mpiwrap: line %d: defer_close must be true or false", lineNo)
			}
			cur.DeferClose = v == "true"
			continue
		}
		cur.Hints.Set(k, v)
	}
	return cfg, sc.Err()
}

// baseName strips a trailing numeric/step suffix so "ckpt.0003" and
// "ckpt.0004" share the base "ckpt". The paper identifies file groups by
// base name in exactly this way.
func baseName(path string) string {
	if i := strings.LastIndexByte(path, '.'); i > 0 {
		suffix := path[i+1:]
		numeric := len(suffix) > 0
		for _, c := range suffix {
			if c < '0' || c > '9' {
				numeric = false
				break
			}
		}
		if numeric {
			return path[:i]
		}
	}
	return path
}

// Wrapper is the per-rank interposition state: it mirrors the PMPI
// overloads of MPI_File_open and MPI_File_close.
type Wrapper struct {
	env  *mpiio.Env
	cfg  *Config
	rank *mpi.Rank

	// outstanding maps a base name to the file whose close was deferred.
	outstanding map[string]*mpiio.File

	// Statistics.
	DeferredCloses int64
	RealCloses     int64
}

// New creates the wrapper for one rank (the library's MPI_Init overload).
func New(env *mpiio.Env, cfg *Config, r *mpi.Rank) *Wrapper {
	return &Wrapper{env: env, cfg: cfg, rank: r, outstanding: make(map[string]*mpiio.File)}
}

// FileOpen is the wrapped MPI_File_open: it merges the configured hints
// into info and, when a previous file with the same base name is still
// internally open, really closes it first — triggering the cache
// synchronisation completion check, exactly as in §III-C.
func (w *Wrapper) FileOpen(comm *mpi.Comm, path string, amode int, info mpi.Info) (*mpiio.File, error) {
	merged := mpi.Info{}
	for k, v := range info {
		merged[k] = v
	}
	if rule := w.cfg.Find(path); rule != nil {
		for k, v := range rule.Hints {
			if _, userSet := info.Get(k); !userSet {
				merged[k] = v
			}
		}
	}
	base := baseName(path)
	if prev, ok := w.outstanding[base]; ok {
		delete(w.outstanding, base)
		w.RealCloses++
		if err := prev.Close(); err != nil {
			return nil, fmt.Errorf("mpiwrap: deferred close of %s: %w", prev.Path(), err)
		}
	}
	return w.env.Open(w.rank, comm, path, amode, merged)
}

// FileClose is the wrapped MPI_File_close: for files matched by a
// defer_close rule it returns success immediately, keeping the handle for
// future reference; otherwise it closes for real.
func (w *Wrapper) FileClose(f *mpiio.File) error {
	if rule := w.cfg.Find(f.Path()); rule != nil && rule.DeferClose {
		w.outstanding[baseName(f.Path())] = f
		w.DeferredCloses++
		return nil
	}
	w.RealCloses++
	return f.Close()
}

// Finalize is the wrapped MPI_Finalize: every internally open file is
// really closed, completing all outstanding cache synchronisation.
func (w *Wrapper) Finalize() error {
	var first error
	// Close in deterministic order.
	for len(w.outstanding) > 0 {
		var minKey string
		for k := range w.outstanding {
			if minKey == "" || k < minKey {
				minKey = k
			}
		}
		f := w.outstanding[minKey]
		delete(w.outstanding, minKey)
		w.RealCloses++
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
