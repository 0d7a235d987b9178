// Package fleet is the one-request-loop fixture: a second retry layer that
// makes its own round trips beside the client's one loop.
package fleet

type muxConn struct{}

func (mc *muxConn) roundTrip(req []byte) ([]byte, error) { return req, nil }

// retryEach retries a round trip on its own, a second request loop.
func retryEach(mc *muxConn, req []byte) (resp []byte, err error) {
	for range 3 {
		if resp, err = mc.roundTrip(req); err == nil { // want
			return resp, nil
		}
	}
	return nil, err
}

// exchange hands the round trip out, for a loop elsewhere to call.
func exchange(mc *muxConn) func([]byte) ([]byte, error) {
	return mc.roundTrip // want
}
