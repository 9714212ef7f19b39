package isa

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"facile/internal/uarch"
)

// TestDescReads: SameDescs tells two configurations apart exactly when
// they differ in a field DescReads lists. Every field of uarch.Config is
// changed alone, so a field added to SameDescs but not to DescReads, or
// the other way round, fails.
func TestDescReads(t *testing.T) {
	skl := uarch.MustByName("SKL")
	typ := reflect.TypeFor[uarch.Config]()
	for f := 0; f < typ.NumField(); f++ {
		key, _, _ := strings.Cut(typ.Field(f).Tag.Get("json"), ",")
		c := *skl
		v := reflect.ValueOf(&c).Elem().Field(f)
		switch v.Kind() {
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			c.RolePorts[0] ^= 1 << 7
		}
		if same, listed := SameDescs(skl, &c), slices.Contains(DescReads, key); same == listed {
			t.Errorf("field %s: SameDescs %v, listed in DescReads %v", key, same, listed)
		}
	}
}
