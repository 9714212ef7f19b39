package uarch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// specFields lists Config's fields by spec key, in field order: the keys
// the spec decoder matches an overlay's keys against.
var specFields = func() []string {
	t := reflect.TypeFor[Config]()
	keys := make([]string, t.NumField())
	for i := range keys {
		keys[i], _, _ = strings.Cut(t.Field(i).Tag.Get("json"), ",")
	}
	return keys
}()

// Indices of the fields a Setting treats apart from the others.
var (
	genField       = fieldIndex("gen")
	rolePortsField = fieldIndex("role_ports")
)

func fieldIndex(key string) int {
	for i, k := range specFields {
		if k == key {
			return i
		}
	}
	panic("uarch: no spec field " + key)
}

// matchKey finds the field an overlay key decodes into, matching it as the
// spec decoder (encoding/json) does: exactly, else case-insensitively. It
// also reports whether the key names the overlay's "base" instead.
func matchKey(key string) (field int, base bool) {
	if key == "base" {
		return -1, true
	}
	for i, k := range specFields {
		if k == key {
			return i, false
		}
	}
	if strings.EqualFold(key, "base") {
		return -1, true
	}
	for i, k := range specFields {
		if strings.EqualFold(k, key) {
			return i, false
		}
	}
	return -1, false
}

// How the spec decoder meets a Setting's error within a whole overlay. It
// scans the document before decoding it, so a syntax error is reported
// first. It stops at an error a decoding method returns (RoleTable's and
// Gen's), and saves any other, such as a value of the wrong JSON type or an
// unknown key, to report the first of them once the document is decoded.
const (
	errSaved = iota + 1
	errStops
	errSyntax
)

// A Setting is one member of a spec overlay, a key and its value, decoded
// once so that it can be applied to many Configs: a design-space sweep
// decodes each value of an axis once and derives every design point from
// them. It holds the value the member gives the field it decodes into, the
// roles it sets when that field is role_ports, and the error it raises.
type Setting struct {
	field  int    // the Config field the member decodes into; -1 for none
	roles  uint32 // for role_ports: the roles it sets
	null   bool   // a null value, which leaves a scalar field as it was
	val    Config // the decoded value, in field
	base   *string
	member bool // a member of the overlay's role_ports object
	err    error
	errAt  int // errSaved, errStops or errSyntax when err is set
}

// DecodeSetting decodes the overlay member key: value onto a copy of base,
// as an overlay holding that member alone would be decoded. The member is
// spelled as an overlay spells it: the key quoted as strconv.Quote quotes
// it, then a colon and value.
func DecodeSetting(base *Config, key string, value []byte) *Setting {
	s := &Setting{val: *base}
	s.field, _ = matchKey(key)
	doc := member([]byte{'{'}, key, value)
	docBase, err := decodeDoc(&s.val, append(doc, '}'))
	if _, isBase := matchKey(key); isBase && !isNull(value) {
		s.base = &docBase
	}
	switch {
	case s.field == rolePortsField && isNull(value):
		s.roles = 1<<NumRoles - 1
	case s.field == rolePortsField:
		s.roles = namedRoles(value)
	case isNull(value):
		s.null = true
	}
	s.classify(err, s.field == rolePortsField || s.field == genField)
	return s
}

// DecodeRoleSetting decodes the member role: value of an overlay's
// role_ports object onto a copy of base, as the overlay
// {"role_ports": {role: value}} would be decoded.
func DecodeRoleSetting(base *Config, role string, value []byte) *Setting {
	s := &Setting{field: rolePortsField, member: true, val: *base}
	if r, ok := roleByName[role]; ok {
		s.roles = 1 << r
	}
	doc := member([]byte(`{"role_ports":{`), role, value)
	_, err := decodeDoc(&s.val, append(doc, '}', '}'))
	s.classify(err, true)
	return s
}

// member appends the overlay member key: value to b.
func member(b []byte, key string, value []byte) []byte {
	return append(append(strconv.AppendQuote(b, key), ':'), value...)
}

func isNull(value []byte) bool { return string(bytes.TrimSpace(value)) == "null" }

// namedRoles returns the roles a role_ports object names.
func namedRoles(value []byte) uint32 {
	var m map[string]json.RawMessage
	if json.Unmarshal(value, &m) != nil {
		return 0
	}
	var roles uint32
	for name := range m {
		if r, ok := roleByName[name]; ok {
			roles |= 1 << r
		}
	}
	return roles
}

// classify records the decoder's error err as s's, worded as the spec
// decoder words it, and how the decoder meets it; method tells whether the
// member's value decodes through a decoding method (a role table, or a
// generation given as a string).
func (s *Setting) classify(err error, method bool) {
	if err == nil {
		return
	}
	var se *json.SyntaxError
	var te *json.UnmarshalTypeError
	switch {
	case errors.As(err, &se):
		s.errAt = errSyntax
	case method && (s.field == rolePortsField || !errors.As(err, &te)):
		s.errAt = errStops
	default:
		s.errAt = errSaved
	}
	s.err = specError(err)
}

// Key returns the spec key of the Config field the setting decodes into,
// or "" when it decodes into none (an unknown key, or the overlay's base).
func (s *Setting) Key() string {
	if s.field < 0 {
		return ""
	}
	return specFields[s.field]
}

// SameFields reports whether a and b agree on the fields with the given
// spec keys.
func SameFields(a, b *Config, keys []string) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for _, key := range keys {
		if f := fieldIndex(key); !va.Field(f).Equal(vb.Field(f)) {
			return false
		}
	}
	return true
}

// apply writes s's value onto c.
func (s *Setting) apply(c *Config) {
	switch {
	case s.field < 0 || s.null:
	case s.field == rolePortsField:
		for r := Role(0); r < NumRoles; r++ {
			if s.roles&(1<<r) != 0 {
				c.RolePorts[r] = s.val.RolePorts[r]
			}
		}
	default:
		reflect.ValueOf(c).Elem().Field(s.field).Set(reflect.ValueOf(&s.val).Elem().Field(s.field))
	}
}

// Derive sets dst to the variant of base named name that the overlay of
// settings derives, and returns the error Registry.DeriveConfig returns for
// that overlay: a copy of base without its name, CPU and release year, the
// settings written onto it in turn, then named and validated. settings
// must be in the order the overlay lists its members, those of its
// role_ports object last. On error dst is unspecified.
func Derive(dst, base *Config, name string, settings []*Setting) error {
	if err := overlayError(settings); err != nil {
		return err
	}
	*dst = *base
	dst.CPU, dst.Released = "", 0
	docBase := ""
	for _, s := range settings {
		s.apply(dst)
		if s.base != nil {
			docBase = *s.base
		}
	}
	if docBase != "" {
		return fmt.Errorf("uarch: derive overlay for %q must not set \"base\"", name)
	}
	dst.Name = name
	return dst.Validate()
}

// overlayError returns the error decoding the overlay of settings reports:
// its first syntax error; else the first error the decoder stops at —
// members of the role_ports object are decoded together, an unknown role
// first, then role by role; else the first error it saved.
func overlayError(settings []*Setting) error {
	var first [errSyntax + 1]*Setting
	var stopRole *Setting
	for _, s := range settings {
		switch {
		case s.err == nil:
		case s.member && s.errAt == errStops:
			if stopRole == nil || memberOrder(s) < memberOrder(stopRole) {
				stopRole = s
			}
		case first[s.errAt] == nil:
			first[s.errAt] = s
		}
	}
	if first[errStops] == nil {
		first[errStops] = stopRole
	}
	for at := errSyntax; at >= errSaved; at-- {
		if s := first[at]; s != nil {
			return s.err
		}
	}
	return nil
}

// memberOrder orders the role_ports members whose decoding stops: an
// unknown role first, then by role.
func memberOrder(s *Setting) int {
	if s.roles == 0 {
		return -1
	}
	for r := 0; ; r++ {
		if s.roles&(1<<r) != 0 {
			return r
		}
	}
}
