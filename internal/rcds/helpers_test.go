package rcds

import (
	"bytes"
	"errors"

	"snipe/internal/seckey"
	"snipe/internal/xdr"
)

var errOneFrame = errors.New("one frame read")

// nextFrame reads one frame off fr the way both read loops do — the frame
// reader's Serve under maxFrame, then openFrame — and returns its body; the
// frames behind it stay in fr for the next call.
func nextFrame(fr *xdr.FrameReader, secret []byte) (body []byte, err error) {
	err = fr.Serve(maxFrame, nil, func(frame []byte) ([]byte, error) {
		if body, err = openFrame(frame, secret); err != nil {
			return nil, err
		}
		return nil, errOneFrame
	}, nil)
	if err == errOneFrame {
		err = nil
	}
	return body, err
}

// request assembles cmd and payload into a request's frame body, as a
// client's call record holds it, behind the frame's length prefix, before
// roundTrip gives it an ID.
func request(cmd uint8, payload func(*xdr.Encoder)) []byte {
	cl := newCall(cmd)
	defer cl.release()
	if payload != nil {
		payload(&cl.req)
	}
	return bytes.Clone(cl.req.Bytes()[frameHeader:])
}

// writeFrame writes body as one frame through fw, its HMAC appended when
// secret is non-empty: what a peer speaking the protocol by hand sends.
func writeFrame(fw *xdr.FrameWriter, body []byte, secret []byte) error {
	var mac []byte
	if len(secret) > 0 {
		mac = seckey.SumMAC(secret, body)
	}
	return fw.WriteFrame(body, mac)
}

// okResponse assembles a success response under request ID 0.
func okResponse(payload func(*xdr.Encoder)) []byte {
	var e xdr.Encoder
	respond(&e, 0, statusOK)
	if payload != nil {
		payload(&e)
	}
	return e.Bytes()
}

// errResponse assembles an error response under request ID 0.
func errResponse(err error) []byte {
	var e xdr.Encoder
	respondErr(&e, 0, err)
	return e.Bytes()
}

// wrongShardResponse assembles a redirect to group under the given map
// epoch, as Server.wrongShard answers.
func wrongShardResponse(group int, epoch uint64) []byte {
	var e xdr.Encoder
	respond(&e, 0, statusWrongShard)
	e.PutUint32(uint32(group))
	e.PutUint64(epoch)
	return e.Bytes()
}

// parseBody is parseResponse over a response body past its request ID,
// returning the decoder at the payload.
func parseBody(body []byte) (*xdr.Decoder, error) {
	d := xdr.NewDecoder(body)
	return d, parseResponse(d)
}
