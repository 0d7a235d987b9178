package nas

import (
	"reflect"
	"unsafe"
)

// PoisonReleased makes p scribble over every message released into it and
// never hand it out again, so that a holder reading a message after its
// release sees garbage (or a nil part) instead of plausible content. Tests
// only: this file is not part of the package's build.
func (p *Pool) PoisonReleased() {
	p.onPut = func(m Message) { poison(reflect.ValueOf(m).Elem()) }
}

// Released reports how many messages of msg's type wait on p's free list.
func (p *Pool) Released(msg Message) int {
	return len(p.free[slot(msg.EPD(), msg.MessageType())])
}

func poison(v reflect.Value) {
	if !v.CanSet() { // an unexported field: same memory, settable view
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(0xDBDBDBDBDBDBDBDB & (1<<(8*uint(v.Type().Size())) - 1))
	case reflect.Int, reflect.Int64:
		v.SetInt(-0x2424242424242425)
	case reflect.String:
		v.SetString("\xDBreleased")
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			poison(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			poison(v.Field(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			poison(v.Elem())
			v.SetZero()
		}
	}
}
