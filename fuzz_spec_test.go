package facile_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"facile"
)

// FuzzLoadSpec: a full spec document is untrusted JSON on POST /v1/archs
// and in -arch-dir files. LoadSpec must never panic, and an accepted spec's
// export is a full document that loads under a fresh name and exports the
// same bytes apart from the name. Seeds live in testdata/fuzz/FuzzLoadSpec:
// the nine embedded specs, an overlay, and documents the loader rejects —
// a missing or unknown role, bad ports, a port list or port of the wrong
// JSON type, 17 ports, and null values.
func FuzzLoadSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		reg := facile.NewArchRegistry()
		info, err := reg.LoadSpec(doc)
		if err != nil {
			return
		}
		spec, err := reg.Spec(info.Name)
		if err != nil {
			t.Fatalf("accepted spec has no export: %v", err)
		}
		fresh := "FuzzCopy"
		if strings.EqualFold(info.Name, fresh) {
			fresh = "FuzzCopy2"
		}
		copied := bytes.Replace(spec, nameField(t, info.Name), nameField(t, fresh), 1)
		if _, err := reg.LoadSpec(copied); err != nil {
			t.Fatalf("the export does not load under a fresh name: %v\n%s", err, copied)
		}
		again, err := reg.Spec(fresh)
		if err != nil || !bytes.Equal(again, copied) {
			t.Fatalf("the reloaded export differs (%v):\n%s\nwant\n%s", err, again, copied)
		}
	})
}

// nameField renders the "name" member as an exported spec spells it.
func nameField(t *testing.T, name string) []byte {
	t.Helper()
	quoted, err := json.Marshal(name)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(`"name": `), quoted...)
}
