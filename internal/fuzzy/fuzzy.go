// Package fuzzy implements the code-offset fuzzy extractor — the
// helper-data key-generation scheme the paper's §II-A1 refers to: a
// cryptographic key is derived from the SRAM power-up pattern at
// enrollment, and reconstructed from any later (noisy) power-up with the
// help of public helper data, as long as the within-class bit error rate
// stays inside the error-correcting code's budget.
//
// Construction (code-offset / fuzzy commitment):
//
//	Enroll:      pick random secret s, helper = Encode(s) XOR response,
//	             key = SHA-256(s).
//	Reconstruct: word = helper XOR response', s' = Decode(word),
//	             key' = SHA-256(s').
//
// The helper data is XOR-masked by a random codeword and therefore leaks
// at most N - K bits about the response; with the response entropy per
// bit measured in the campaign, the key retains full strength.
package fuzzy

import (
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/ecc"
	"repro/internal/rng"
)

// HelperData is the public enrollment output. It hides the secret
// information-theoretically up to the code redundancy.
type HelperData struct {
	Offset *bitvec.Vector // Encode(secret) XOR response
	Check  [8]byte        // truncated hash of the key for reconstruction verification
}

// Extractor binds an error-correcting code to the scheme.
type Extractor struct {
	code ecc.Code
}

// New creates an extractor over the given code.
func New(code ecc.Code) (*Extractor, error) {
	if code == nil {
		return nil, errors.New("fuzzy: nil code")
	}
	return &Extractor{code: code}, nil
}

// Code returns the underlying code.
func (e *Extractor) Code() ecc.Code { return e.code }

// ResponseBits returns the number of PUF response bits consumed.
func (e *Extractor) ResponseBits() int { return e.code.N() }

// Enroll derives a key from the response and produces helper data.
// The secret is drawn from src (use a cryptographically seeded source in
// production; the simulator uses its deterministic stream).
func (e *Extractor) Enroll(response *bitvec.Vector, src *rng.Source) (key []byte, helper HelperData, err error) {
	if response == nil || response.Len() != e.code.N() {
		return nil, HelperData{}, fmt.Errorf("fuzzy: response must have %d bits", e.code.N())
	}
	if src == nil {
		return nil, HelperData{}, errors.New("fuzzy: nil randomness source")
	}
	secret := bitvec.New(e.code.K())
	for i := 0; i < secret.Len(); i++ {
		secret.Set(i, src.Bernoulli(0.5))
	}
	cw, err := e.code.Encode(secret)
	if err != nil {
		return nil, HelperData{}, err
	}
	offset, err := cw.Xor(response)
	if err != nil {
		return nil, HelperData{}, err
	}
	key = deriveKey(secret)
	// The secret is recoverable from the key only through SHA-256; drop
	// the plaintext copy as soon as the key exists.
	secret.SetAll(false)
	helper = HelperData{Offset: offset}
	copy(helper.Check[:], checkDigest(key))
	return key, helper, nil
}

// ErrReconstructFailed is returned when the reconstructed key fails the
// helper-data check (too many response errors for the code).
var ErrReconstructFailed = errors.New("fuzzy: key reconstruction failed")

// Reconstruct recovers the enrolled key from a fresh response.
func (e *Extractor) Reconstruct(response *bitvec.Vector, helper HelperData) ([]byte, error) {
	if response == nil || response.Len() != e.code.N() {
		return nil, fmt.Errorf("fuzzy: response must have %d bits", e.code.N())
	}
	if helper.Offset == nil {
		return nil, errors.New("fuzzy: helper data has no offset")
	}
	word, err := helper.Offset.Xor(response)
	if err != nil {
		return nil, err
	}
	secret, err := e.code.Decode(word)
	if err != nil {
		return nil, err
	}
	key := deriveKey(secret)
	secret.SetAll(false)
	chk := checkDigest(key)
	// Constant-time check: the comparison must not leak how many digest
	// bytes of a near-miss reconstruction matched.
	if subtle.ConstantTimeCompare(chk, helper.Check[:]) != 1 {
		return nil, ErrReconstructFailed
	}
	return key, nil
}

// deriveKey hashes the secret bits into the final key (the conditioning
// stage of the extractor).
func deriveKey(secret *bitvec.Vector) []byte {
	h := sha256.New()
	h.Write([]byte("sram-puf-key-v1"))
	h.Write(secret.Bytes())
	return h.Sum(nil)
}

// checkDigest derives the public reconstruction check from the key via a
// domain-separated hash (does not reveal the key).
func checkDigest(key []byte) []byte {
	h := sha256.New()
	h.Write([]byte("sram-puf-check-v1"))
	h.Write(key)
	return h.Sum(nil)[:8]
}
