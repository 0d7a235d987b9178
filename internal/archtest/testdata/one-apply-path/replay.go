// Package fleet is the one-apply-path fixture: a second place that opens an
// uplink envelope, beside (*shard).apply.
package fleet

import "github.com/seed5g/seed/internal/crypto5g"

// replayUpload opens a journaled upload without going through apply.
func replayUpload(env *crypto5g.Envelope, body []byte) ([]byte, error) {
	return env.Open(crypto5g.Uplink, body) // want
}
