// Package fleet is the one-apply-path fixture: two more places that open an
// uplink envelope, beside (*shard).apply, one through each opening method.
package fleet

import "github.com/seed5g/seed/internal/crypto5g"

// replayUpload opens a journaled upload without going through apply.
func replayUpload(env *crypto5g.Envelope, body []byte) ([]byte, error) {
	return env.Open(crypto5g.Uplink, body) // want
}

// replayInto opens a journaled upload into the caller's buffer without
// going through apply.
func replayInto(env *crypto5g.Envelope, dst, body []byte) ([]byte, error) {
	return env.AppendOpen(dst, crypto5g.Uplink, body) // want
}
