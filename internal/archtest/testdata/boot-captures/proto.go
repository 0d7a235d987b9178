// The boot-captures fixture, checked with the root package's own files: the
// ladder's rung-3 profile-reload hook moved into a prototype's boot, where it
// captures a flag the snapshot does not rewind.
package seed

var ladderProtos = NewProtoMap(func(rung int) func(*Testbed) *Device {
	return func(tb *Testbed) *Device {
		d := tb.NewDevice(ModeLegacy, WithStaleDNN("internet2"))
		first := true
		d.OnProfileReload(func() {
			if first { // want
				first = false
				d.inner.Mdm.OverrideSessionDNN("internet")
			}
		})
		return d
	}
})
