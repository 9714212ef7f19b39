package uarch

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// settingValues are values for each kind of spec field, most valid, some of
// the wrong JSON type, out of range or null.
var settingValues = map[string][]string{
	"int":    {"0", "1", "2", "4", "6", "-3", "4.5", "1e99", `"x"`, "true", "null", "[1]", "{}", "5000"},
	"bool":   {"true", "false", "1", "null", `"true"`},
	"string": {`"x"`, `""`, "3", "null"},
	"gen":    {`"SKL"`, `"hsw"`, `"XYZ"`, "5", "null", "[]"},
	"table":  {`{"alu":[0,1]}`, `{"fma":[]}`, `{"bogus":[1]}`, `{"alu":"x"}`, `{"alu":[99]}`, "{}", "null", "5", "[]"},
	"ports":  {"[0,1]", "[]", "null", `"x"`, "[99]", "[1,1]", "[0,1,5,6]", "{}"},
}

// settingKind maps a spec key to the values it is tried with.
func settingKind(key string) string {
	switch key {
	case "gen":
		return "gen"
	case "role_ports":
		return "table"
	case "name", "full_name", "cpu":
		return "string"
	}
	if reflect.TypeFor[Config]().Field(fieldIndex(key)).Type.Kind() == reflect.Bool {
		return "bool"
	}
	return "int"
}

// TestDeriveMatchesDeriveConfig: deriving a variant from settings decoded
// one member at a time gives what Registry.DeriveConfig gives for the
// overlay document of those members — the same Config, or the same error
// text — over random overlays of every spec key (case variants, unknown
// keys and "base" among them), role_ports members and values of every JSON
// type, valid or not.
func TestDeriveMatchesDeriveConfig(t *testing.T) {
	reg := NewRegistry()
	base := reg.All()[4] // SKL
	keys := append(slices.Clone(specFields), "Issue_Width", "LSD_ENABLED", "p0", "Base", "base", "NAME", "Role_Ports", "p\x01", "a\"b", "\u00e9")
	roles := append(append([]string(nil), roleNames[:]...), "bogus", "ALU")
	rng := rand.New(rand.NewSource(1))
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	kinds := 0
	for trial := 0; trial < 4000; trial++ {
		var doc strings.Builder
		var settings []*Setting
		doc.WriteByte('{')
		for n := rng.Intn(4); n >= 0; n-- {
			key := pick(keys)
			var val string
			switch lk := strings.ToLower(key); {
			case lk == "base":
				val = pick([]string{`""`, `"SKL"`, "null", "3"})
			case lk == "p0", strings.ContainsAny(lk, "\x01\"\u00e9"):
				val = "1"
			default:
				val = pick(settingValues[settingKind(lk)])
			}
			if len(settings) > 0 {
				doc.WriteByte(',')
			}
			doc.Write(member(nil, key, []byte(val)))
			settings = append(settings, DecodeSetting(base, key, []byte(val)))
		}
		if rng.Intn(2) == 0 {
			if len(settings) > 0 {
				doc.WriteByte(',')
			}
			doc.WriteString(`"role_ports":{`)
			seen := map[string]bool{}
			for n := rng.Intn(3); n >= 0; n-- {
				// Two unknown roles would make the decoder's report depend
				// on map order.
				role := pick(roles)
				_, known := roleByName[role]
				if seen[role] || !known && seen["?"] {
					continue
				}
				seen[role], seen["?"] = true, seen["?"] || !known
				val := pick(settingValues["ports"])
				if doc.String()[doc.Len()-1] != '{' {
					doc.WriteByte(',')
				}
				doc.Write(member(nil, role, []byte(val)))
				settings = append(settings, DecodeRoleSetting(base, role, []byte(val)))
			}
			doc.WriteByte('}')
		}
		doc.WriteByte('}')
		name := fmt.Sprintf("SKL~t%d", trial)
		want, wantErr := reg.DeriveConfig(name, "SKL", []byte(doc.String()))
		var got Config
		gotErr := Derive(&got, base, name, settings)
		switch {
		case (wantErr == nil) != (gotErr == nil):
			t.Fatalf("%s: Derive error %v, DeriveConfig %v", doc.String(), gotErr, wantErr)
		case wantErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("%s: Derive error\n%v\nDeriveConfig\n%v", doc.String(), gotErr, wantErr)
		case wantErr == nil && got != *want:
			t.Fatalf("%s: Derive\n%+v\nDeriveConfig\n%+v", doc.String(), got, *want)
		case wantErr == nil:
			kinds |= 1
		default:
			kinds |= 2
		}
	}
	if kinds != 3 {
		t.Fatalf("the random overlays gave only valid or only invalid variants (%b)", kinds)
	}
}
