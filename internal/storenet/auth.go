package storenet

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

// Scope is a capability class a bearer token grants. Scopes are
// hierarchical — write implies read, admin implies write — because
// every real deployment that can mutate the store must also be able to
// probe it (Put's idempotence check is a HEAD, the claim loop peeks
// holders), so a flat model would force every token to list everything.
type Scope uint8

const (
	// ScopeRead admits the read plane: blob GET/HEAD, lease peeks,
	// index, stats.
	ScopeRead Scope = 1 << iota
	// ScopeWrite admits mutation: blob PUT and the lease CAS endpoints
	// (acquire/renew/release). Implies ScopeRead.
	ScopeWrite
	// ScopeAdmin admits operational surgery — today that is POST /v1/gc,
	// which can evict any tenant's blobs. Implies ScopeWrite.
	ScopeAdmin
)

// expandScope folds the implication chain into a mask, so enforcement
// is a single bitwise test.
func expandScope(s Scope) Scope {
	if s&ScopeAdmin != 0 {
		s |= ScopeWrite
	}
	if s&ScopeWrite != 0 {
		s |= ScopeRead
	}
	return s
}

func (s Scope) String() string {
	switch {
	case s&ScopeAdmin != 0:
		return "admin"
	case s&ScopeWrite != 0:
		return "write"
	case s&ScopeRead != 0:
		return "read"
	}
	return "none"
}

// TokenLimits bounds one token's lifetime. The zero value means
// unbounded — a token file line with no k=v settings grants scope
// forever.
type TokenLimits struct {
	// NotBefore and Expires bound the token's validity window. A request
	// outside it is rejected 401 (error="invalid_token") exactly like an
	// unknown token — the credential does not exist yet, or no longer
	// does. Zero values mean unbounded on that side. Expiry is how token
	// files rotate without a flag day: ship the replacement early with
	// nbf=<cutover>, give the old token expires=<cutover+grace>, and
	// SIGHUP the daemon once; each credential activates and lapses on
	// schedule.
	NotBefore, Expires time.Time
}

// tokenEntry is one credential's grant: its (expanded) scope and its
// validity window (zero bounds mean unbounded).
type tokenEntry struct {
	scope Scope
	nbf   time.Time
	exp   time.Time
}

// validAt reports whether the credential exists at the given instant:
// at or after nbf, strictly before exp.
func (e *tokenEntry) validAt(now time.Time) bool {
	if !e.nbf.IsZero() && now.Before(e.nbf) {
		return false
	}
	if !e.exp.IsZero() && !now.Before(e.exp) {
		return false
	}
	return true
}

// TokenSet is the daemon's credential table: token → scope + validity
// window. The map is immutable after construction (LoadTokens/Grant
// happen before the server starts), so lookups need no
// synchronisation.
type TokenSet struct {
	tokens map[string]*tokenEntry
}

// NewTokenSet returns an empty set; Grant populates it. Tests and
// embedders build sets programmatically, daemons load them from a file.
func NewTokenSet() *TokenSet {
	return &TokenSet{tokens: map[string]*tokenEntry{}}
}

// Grant adds (or replaces) a token with the given scope and window,
// returning the set for chaining. Scope implications are expanded here.
func (ts *TokenSet) Grant(token string, scope Scope, lim TokenLimits) *TokenSet {
	ts.tokens[token] = &tokenEntry{
		scope: expandScope(scope),
		nbf:   lim.NotBefore,
		exp:   lim.Expires,
	}
	return ts
}

// Len reports how many tokens the set holds.
func (ts *TokenSet) Len() int { return len(ts.tokens) }

// LoadTokens reads a token file — the cmd/stored -tokens format:
//
//	# comment (or blank line)
//	<token> <scope>[,<scope>...] [nbf=RFC3339] [expires=RFC3339]
//
// One token per line, whitespace-separated. Scopes are read, write,
// admin (hierarchical: admin ⊃ write ⊃ read). nbf and expires bound
// the token's validity window (RFC 3339 timestamps, e.g.
// 2026-09-01T00:00:00Z): requests before nbf or at/after expires are
// 401s. Omitted settings mean unbounded. A SIGHUP reload plus
// staggered nbf/expires windows is the rotation story — see
// TokenLimits.
func LoadTokens(path string) (*TokenSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storenet: tokens: %w", err)
	}
	defer f.Close()
	ts, err := ParseTokens(f)
	if err != nil {
		return nil, fmt.Errorf("storenet: tokens %s: %w", path, err)
	}
	return ts, nil
}

// ParseTokens parses the token-file format from a reader; see
// LoadTokens for the grammar.
func ParseTokens(r io.Reader) (*TokenSet, error) {
	ts := NewTokenSet()
	sc := bufio.NewScanner(r)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("line %d: want <token> <scopes> [k=v...], got %q", lineNo, line)
		}
		token := fields[0]
		if _, dup := ts.tokens[token]; dup {
			return nil, fmt.Errorf("line %d: duplicate token %q", lineNo, token)
		}
		var scope Scope
		for _, s := range strings.Split(fields[1], ",") {
			switch strings.TrimSpace(s) {
			case "read":
				scope |= ScopeRead
			case "write":
				scope |= ScopeWrite
			case "admin":
				scope |= ScopeAdmin
			default:
				return nil, fmt.Errorf("line %d: unknown scope %q (want read, write, or admin)", lineNo, s)
			}
		}
		var lim TokenLimits
		for _, kv := range fields[2:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("line %d: bad setting %q (want k=v)", lineNo, kv)
			}
			switch key {
			case "nbf", "expires":
				ts, err := time.Parse(time.RFC3339, val)
				if err != nil {
					return nil, fmt.Errorf("line %d: bad timestamp %q (want RFC 3339, e.g. 2026-09-01T00:00:00Z)", lineNo, kv)
				}
				if key == "nbf" {
					lim.NotBefore = ts
				} else {
					lim.Expires = ts
				}
			default:
				return nil, fmt.Errorf("line %d: unknown setting %q (want nbf or expires)", lineNo, kv)
			}
		}
		if !lim.NotBefore.IsZero() && !lim.Expires.IsZero() && !lim.NotBefore.Before(lim.Expires) {
			return nil, fmt.Errorf("line %d: empty validity window (nbf %s is not before expires %s)",
				lineNo, lim.NotBefore.Format(time.RFC3339), lim.Expires.Format(time.RFC3339))
		}
		ts.Grant(token, scope, lim)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if ts.Len() == 0 {
		return nil, fmt.Errorf("no tokens (an empty token file would lock every client out; serve without -tokens for open mode)")
	}
	return ts, nil
}

// bearerToken extracts the Authorization: Bearer credential.
func bearerToken(r *http.Request) (string, bool) {
	h := r.Header.Get("Authorization")
	tok, ok := strings.CutPrefix(h, "Bearer ")
	if !ok || tok == "" {
		return "", false
	}
	return tok, true
}

// admit enforces the token table for one request: 401 for a missing,
// unknown or out-of-window token, 403 for a known token short of the
// route's scope. A false return means the rejection has been written.
// Probes (/healthz, /readyz) and /metrics never pass through admit —
// they are registered outside the authed routes, because orchestrators
// and scrapers do not carry tenant credentials and a daemon that
// cannot be probed gets restarted.
func (ts *TokenSet) admit(w http.ResponseWriter, r *http.Request, need Scope) bool {
	tok, ok := bearerToken(r)
	if !ok {
		w.Header().Set("WWW-Authenticate", `Bearer realm="stored"`)
		http.Error(w, "storenet: missing Authorization: Bearer token", http.StatusUnauthorized)
		return false
	}
	e := ts.tokens[tok]
	if e == nil {
		w.Header().Set("WWW-Authenticate", `Bearer realm="stored", error="invalid_token"`)
		http.Error(w, "storenet: unknown token", http.StatusUnauthorized)
		return false
	}
	// An expired or not-yet-valid token is indistinguishable from an
	// unknown one on purpose: 401 tells the client to fetch fresh
	// credentials, and the daemon does not leak which tokens exist
	// outside their windows.
	if !e.validAt(time.Now()) {
		w.Header().Set("WWW-Authenticate", `Bearer realm="stored", error="invalid_token"`)
		http.Error(w, "storenet: token outside its validity window", http.StatusUnauthorized)
		return false
	}
	if e.scope&need != need {
		http.Error(w, fmt.Sprintf("storenet: token grants %s, route needs %s", e.scope, need),
			http.StatusForbidden)
		return false
	}
	return true
}
