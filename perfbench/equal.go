package main

import "reflect"

// sameValue reports whether a and b hold deeply equal values, counting
// NaN equal to NaN: a campaign result keeps NaN in the summaries of
// pairs it skipped, where reflect.DeepEqual would call two identical
// results different. Unexported fields are compared too.
func sameValue(a, b any) bool { return equalValue(reflect.ValueOf(a), reflect.ValueOf(b)) }

func equalValue(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() || a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equalValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !equalValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if bv := b.MapIndex(k); !bv.IsValid() || !equalValue(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || (x != x && y != y)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.String:
		return a.String() == b.String()
	}
	return false // funcs, channels, complex numbers: not in a result
}
