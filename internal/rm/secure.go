package rm

import (
	"errors"
	"fmt"
	"time"

	"snipe/internal/naming"
	"snipe/internal/seckey"
	"snipe/internal/task"
	"snipe/internal/xdr"
)

// Secure allocation implements the resource-manager side of the §4
// two-certificate protocol over the RM message protocol: the requester
// presents a user grant, the user's key certificate, a host
// attestation and the host's key certificate; the RM verifies both
// chains and the ACL, issues its own signed authorization, and only
// then allocates. The issued authorization is published as metadata of
// the spawned task so resource hosts can verify it (§4: the RM
// "transmits that statement to the hosts where the resources reside").

// opSecureAllocate extends the RM protocol.
const opSecureAllocate uint8 = 100

// AttrAuthorization is the assertion name under which a task's RM
// authorization is published.
const AttrAuthorization = "rm-authorization"

// ErrNoAuthorizer indicates secure allocation on an RM without a
// configured authorizer.
var ErrNoAuthorizer = errors.New("rm: no authorizer configured")

// SetAuthorizer enables secure allocation, making this RM a
// certificate-verifying allocator (and, per §4, typically the CA for
// its users and hosts).
func (m *Manager) SetAuthorizer(a *seckey.Authorizer) {
	m.mu.Lock()
	m.authorizer = a
	m.mu.Unlock()
}

// SecureRequest bundles the §4 credentials with a spawn spec.
type SecureRequest struct {
	Spec     task.Spec
	Grant    *seckey.UserGrant
	UserCert *seckey.KeyCertificate
	Att      *seckey.HostAttestation
	HostCert *seckey.KeyCertificate
}

// Encode serialises the request.
func (r *SecureRequest) Encode(e *xdr.Encoder) {
	r.Spec.Encode(e)
	r.Grant.Encode(e)
	r.UserCert.Encode(e)
	r.Att.Encode(e)
	r.HostCert.Encode(e)
}

// DecodeSecureRequest reads a request written by Encode.
func DecodeSecureRequest(d *xdr.Decoder) (*SecureRequest, error) {
	var r SecureRequest
	var err error
	if r.Spec, err = task.DecodeSpec(d); err != nil {
		return nil, err
	}
	var s *seckey.Statement
	if s, err = seckey.DecodeStatement(d); err != nil {
		return nil, err
	}
	r.Grant = &seckey.UserGrant{Statement: s}
	if s, err = seckey.DecodeStatement(d); err != nil {
		return nil, err
	}
	r.UserCert = &seckey.KeyCertificate{Statement: s}
	if s, err = seckey.DecodeStatement(d); err != nil {
		return nil, err
	}
	r.Att = &seckey.HostAttestation{Statement: s}
	if s, err = seckey.DecodeStatement(d); err != nil {
		return nil, err
	}
	r.HostCert = &seckey.KeyCertificate{Statement: s}
	return &r, nil
}

// SecureAllocate verifies the credentials and, on success, allocates
// the spec and publishes the RM's authorization as task metadata.
func (m *Manager) SecureAllocate(req *SecureRequest, now uint64) (string, error) {
	m.mu.Lock()
	auth := m.authorizer
	m.mu.Unlock()
	if auth == nil {
		return "", ErrNoAuthorizer
	}
	authorization, err := auth.Authorize(req.Grant, req.UserCert, req.Att, req.HostCert, now)
	if err != nil {
		return "", fmt.Errorf("rm: authorization refused: %w", err)
	}
	urn, err := m.Allocate(req.Spec)
	if err != nil {
		return "", err
	}
	e := xdr.NewEncoder(256)
	authorization.Encode(e)
	if err := m.cat.Add(urn, AttrAuthorization, string(e.Bytes())); err != nil {
		return urn, err
	}
	return urn, nil
}

// handleSecure answers opSecureAllocate (called from handle).
func (m *Manager) handleSecure(d *xdr.Decoder) (string, error) {
	req, err := DecodeSecureRequest(d)
	if err != nil {
		return "", err
	}
	return m.SecureAllocate(req, uint64(time.Now().Unix()))
}

// SecureAllocate is the client side: present credentials with the
// spec.
func (c *Client) SecureAllocate(req *SecureRequest) (string, error) {
	return c.request(opSecureAllocate, func(e *xdr.Encoder) { req.Encode(e) })
}

// VerifyTaskAuthorization lets a resource host check the published
// authorization of a task against the RMs it trusts (§4's final
// verification step). now is the verifier's logical time.
func VerifyTaskAuthorization(cat naming.Catalog, trust *seckey.TrustStore, taskURN string, now uint64) error {
	vals, err := cat.Values(taskURN, AttrAuthorization)
	if err != nil {
		return err
	}
	if len(vals) == 0 {
		return fmt.Errorf("rm: %s has no published authorization", taskURN)
	}
	var lastErr error
	for _, v := range vals {
		d := xdr.NewDecoder([]byte(v))
		s, err := seckey.DecodeStatement(d)
		if err != nil {
			lastErr = err
			continue
		}
		if err := seckey.VerifyAuthorization(trust, &seckey.Authorization{Statement: s}, now); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return fmt.Errorf("rm: no verifiable authorization for %s: %w", taskURN, lastErr)
}
