//go:build !unix

package xdr

// serveFD is the descriptor path's absence: a blocking Read drives Serve.
func (fr *FrameReader) serveFD() (served bool, err error) { return false, nil }
