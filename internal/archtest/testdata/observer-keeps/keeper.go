// Package adversary is the observer-keeps fixture: a NAS observer that keeps
// the message it was lent instead of copying it during the call.
package adversary

import "github.com/seed5g/seed/internal/nas"

type keeper struct{ seen []nas.Message }

// NAS implements modem.NASObserver.
func (k *keeper) NAS(_ string, _ bool, msg nas.Message) {
	k.seen = append(k.seen, msg) // want
}
