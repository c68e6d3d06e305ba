package rcds

import (
	"bytes"

	"snipe/internal/xdr"
)

// request assembles cmd and payload into a request's frame body, as a
// client's call record holds it before roundTrip gives it an ID.
func request(cmd uint8, payload func(*xdr.Encoder)) []byte {
	cl := newCall(cmd)
	defer cl.release()
	if payload != nil {
		payload(&cl.req)
	}
	return bytes.Clone(cl.req.Bytes())
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
