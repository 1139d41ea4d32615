package store

import (
	"fmt"
	"os"
	"path/filepath"

	"golatest/internal/core"
)

// ValidatedBlob is the proof-carrying handoff between the layers that
// validate blob bytes and the layers that persist them. Its only
// constructors are the digest-checking parse paths (ValidateBlobBytes
// here, Store.GetValidated on the read side), so holding one is a
// type-level guarantee that the bytes inside have already cleared the
// full container/body/schema/digest validation — which is what
// lets Store.PutValidated write them to disk verbatim, with no second
// decode. The network client validates a wire body exactly once and
// hands the same proof to its local tier; the compiler, not a
// convention, enforces that no unvalidated bytes can take that road.
//
// A ValidatedBlob aliases the byte slice it was constructed over (for
// the client that slice is pooled body scratch), so the handoff is
// synchronous: persist or copy it before the caller recycles the
// buffer. It is immutable by convention — nothing may mutate data or
// the decoded result after construction.
type ValidatedBlob struct {
	key      Key
	data     []byte
	rawBytes int64
	res      *core.Result
}

// ValidateBlobBytes parses and validates raw blob bytes against the
// digest they claim and returns the proof-carrying blob: the validated
// bytes plus the decoded result, from one parse. It is the constructor
// every storing path funnels through: the daemon's PUT handler, the
// client's response validation, and EncodeValidated.
func ValidateBlobBytes(data []byte, digest string) (*ValidatedBlob, error) {
	k, res, rawBytes, err := parseBlob(data, digest)
	if err != nil {
		return nil, err
	}
	return &ValidatedBlob{key: k, data: data, rawBytes: rawBytes, res: res}, nil
}

// EncodeValidated encodes a result (EncodeBlobV3) and validates the
// bytes once: the blob a remote backend's Put uploads verbatim.
func EncodeValidated(k Key, res *core.Result) (*ValidatedBlob, error) {
	data, err := EncodeBlobV3(k, res)
	if err != nil {
		return nil, err
	}
	return ValidateBlobBytes(data, k.Digest)
}

// Digest returns the digest the bytes were validated against.
func (vb *ValidatedBlob) Digest() string { return vb.key.Digest }

// Key returns the content address recorded in the envelope.
func (vb *ValidatedBlob) Key() Key { return vb.key }

// Bytes returns the validated blob bytes. They alias the slice the
// blob was constructed over; treat them as read-only and gone once the
// constructing caller returns.
func (vb *ValidatedBlob) Bytes() []byte { return vb.data }

// RawBytes returns the body size: the blob's length before
// compression.
func (vb *ValidatedBlob) RawBytes() int64 { return vb.rawBytes }

// Result returns the campaign result decoded by the validating parse.
// Callers must not mutate it if the blob will still be persisted.
func (vb *ValidatedBlob) Result() *core.Result { return vb.res }

// PutValidated persists an already-validated blob verbatim — the
// zero-extra-decode path wire bytes take into the local tier. The
// atomic rename and O(1) journal append match Put.
func (s *Store) PutValidated(vb *ValidatedBlob) error {
	if reservedDigest(vb.key.Digest) {
		return fmt.Errorf("store: %w: digest %q names the index snapshot", ErrInvalidBlob, vb.key.Digest)
	}
	if err := s.writeAtomic(vb.key.blobName(), vb.data); err != nil {
		return err
	}
	s.puts.Add(1)
	return s.recordPut(vb.key, int64(len(vb.data)), vb.rawBytes)
}

// GetValidated returns the proof-carrying blob stored under digest, or
// (nil, false) on any kind of miss — the store's one read path, behind
// Get and GetRaw alike. A blob that does not validate is deleted and
// its index entry tombstoned on the spot, and the miss counts as
// Corrupt. A hit advances the entry's LRU clock, indexing the blob
// under its envelope identity if this handle had not seen it.
func (s *Store) GetValidated(digest string) (*ValidatedBlob, bool) {
	if reservedDigest(digest) {
		// A plain miss, pointedly without healing: the "corrupt blob"
		// a reserved digest resolves to is the index snapshot itself.
		s.misses.Add(1)
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(s.dir, digest+".json"))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	vb, err := ValidateBlobBytes(data, digest)
	if err != nil {
		s.corrupt.Add(1)
		s.misses.Add(1)
		s.healCorrupt(Key{Digest: digest})
		return nil, false
	}
	s.hits.Add(1)
	s.touch(vb.key, int64(len(data)), vb.rawBytes)
	return vb, true
}
