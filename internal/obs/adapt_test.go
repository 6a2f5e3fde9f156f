package obs

import (
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

	"fbs/internal/core"
	"fbs/internal/principal"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// fillByPath sets every integer leaf of v to a value derived from its
// path, so each exposition row's value says which field it read and
// adding a field leaves every other value alone.
func fillByPath(v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillByPath(v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillByPath(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Int, reflect.Int32, reflect.Int64:
		v.SetInt(int64(crc32.ChecksumIEEE([]byte(path)) % 100000))
	case reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(crc32.ChecksumIEEE([]byte(path)) % 100000))
	}
}

// TestEndpointFamiliesGolden pins the whole endpoint exposition — every
// family, in order, with its type, help, labels and the field each row
// reads — as a pure function of a Snapshot value.
func TestEndpointFamiliesGolden(t *testing.T) {
	var s core.Snapshot
	fillByPath(reflect.ValueOf(&s).Elem(), "")
	for i, name := range []string{"tfkc", "rfkc", "pvc", "mkc"} {
		s.Caches[i].Name = name
	}
	lbl := Label{Key: "endpoint", Value: "a"}
	r := NewRegistry()
	r.RegisterFunc(func() []Family {
		return append(EndpointFamilies(s, lbl),
			ReplayPeerFamily(map[principal.Address]int{"peer-b": 2, "peer-a": 1}, lbl))
	})
	got := r.Text()

	const path = "testdata/endpoint_families.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("endpoint exposition changed (-update rewrites %s):\n%s", path, got)
	}
}
