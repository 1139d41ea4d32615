package store_test

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"golatest/internal/core"
	"golatest/internal/store"
	"golatest/internal/store/conformancetest"
)

// pinKey addresses every adversarial fixture in testdata.
var pinKey = store.Key{Digest: "cafe", Profile: "a100-sxm4", Instance: 2}

// pinCase is one committed v3 blob and the result it was encoded from.
type pinCase struct {
	file string
	key  store.Key
	res  func() *core.Result
}

func pinCases(t *testing.T) []pinCase {
	var cases []pinCase
	for name := range store.AdversarialResults() {
		cases = append(cases, pinCase{
			file: "adversarial-" + name + ".v3",
			key:  pinKey,
			res:  func() *core.Result { return store.AdversarialResults()[name] },
		})
	}
	for i := 0; i < 3; i++ {
		cases = append(cases, pinCase{
			file: fmt.Sprintf("conformance-%d.v3", i),
			key:  conformancetest.Key(t, i),
			res:  func() *core.Result { return conformancetest.Result(i) },
		})
	}
	return cases
}

// TestV3CompatibilityPin holds the codec to the v3 blobs committed in
// testdata, which an earlier build of the encoder wrote. Each must still
// decode to its fixture, and a fresh encode must produce the same body.
// The one permitted difference is body bytes 4–11: that header field
// once carried a size and is now reserved (written as zero, never read).
func TestV3CompatibilityPin(t *testing.T) {
	for _, c := range pinCases(t) {
		t.Run(c.file, func(t *testing.T) {
			old, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			vb, err := store.ValidateBlobBytes(old, c.key.Digest)
			if err != nil {
				t.Fatalf("committed blob no longer decodes: %v", err)
			}
			if err := equalResults(vb.Result(), decodedForm(c.res())); err != nil {
				t.Fatalf("decoded result differs from its fixture: %v", err)
			}

			fresh, err := store.EncodeBlobV3(c.key, c.res())
			if err != nil {
				t.Fatal(err)
			}
			oldBody, newBody := inflateBody(t, old), inflateBody(t, fresh)
			if len(oldBody) != len(newBody) {
				t.Fatalf("body length %d, committed %d", len(newBody), len(oldBody))
			}
			if vb.RawBytes() != int64(len(oldBody)) {
				t.Fatalf("RawBytes = %d, want the body size %d", vb.RawBytes(), len(oldBody))
			}
			for i := range oldBody {
				if (i < 4 || i > 11) && oldBody[i] != newBody[i] {
					t.Fatalf("body byte %d = %#x, committed %#x", i, newBody[i], oldBody[i])
				}
			}
		})
	}
}

// inflateBody strips the 4-byte v3 magic and inflates the gzip body.
func inflateBody(t *testing.T, blob []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(blob[4:]))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// decodedForm applies the collapses the codec has always made to a
// fixture: the append-built Pairs and Measurements slices come back nil
// when empty, and a present Phase1 always gets a non-nil Stats map.
// Every other slice keeps its nil-or-empty identity.
func decodedForm(res *core.Result) *core.Result {
	if len(res.Pairs) == 0 {
		res.Pairs = nil
	}
	for _, pr := range res.Pairs {
		if pr != nil && len(pr.Measurements) == 0 {
			pr.Measurements = nil
		}
	}
	if res.Phase1 != nil && res.Phase1.Stats == nil {
		res.Phase1.Stats = map[float64]core.FreqStats{}
	}
	return res
}

// equalResults is reflect.DeepEqual with two changes: any two NaNs are
// equal (the codec canonicalises NaN payloads), and other floats must
// match bit for bit (so -0 and +0 differ). Nil and empty slices or maps
// stay distinct, as in DeepEqual.
func equalResults(got, want *core.Result) error {
	return equalValue("result", reflect.ValueOf(got), reflect.ValueOf(want))
}

func equalValue(path string, a, b reflect.Value) error {
	switch a.Kind() {
	case reflect.Float64:
		x, y := a.Float(), b.Float()
		if (math.IsNaN(x) && math.IsNaN(y)) || math.Float64bits(x) == math.Float64bits(y) {
			return nil
		}
		return fmt.Errorf("%s = %v, want %v", path, x, y)
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Errorf("%s nil = %v, want %v", path, a.IsNil(), b.IsNil())
			}
			return nil
		}
		return equalValue(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if err := equalValue(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Errorf("%s (nil=%v len=%d), want (nil=%v len=%d)", path, a.IsNil(), a.Len(), b.IsNil(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if err := equalValue(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Errorf("%s (nil=%v len=%d), want (nil=%v len=%d)", path, a.IsNil(), a.Len(), b.IsNil(), b.Len())
		}
		for _, k := range b.MapKeys() {
			av := a.MapIndex(k)
			if !av.IsValid() {
				return fmt.Errorf("%s missing key %v", path, k)
			}
			if err := equalValue(fmt.Sprintf("%s[%v]", path, k), av, b.MapIndex(k)); err != nil {
				return err
			}
		}
		return nil
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Errorf("%s = %q, want %q", path, a.String(), b.String())
		}
		return nil
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Errorf("%s = %v, want %v", path, a.Bool(), b.Bool())
		}
		return nil
	case reflect.Int, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Errorf("%s = %d, want %d", path, a.Int(), b.Int())
		}
		return nil
	}
	return fmt.Errorf("%s: unhandled kind %s", path, a.Kind())
}
