package core

import (
	"reflect"
	"testing"
)

func TestClassRoundTrip(t *testing.T) {
	in := []RawClass{
		RawClean, RawError, RawAbort,
		RawRestart, RawCatastrophic, RawSkip,
	}
	enc := PackClasses(in)
	if enc != "012345" {
		t.Fatalf("PackClasses = %q", enc)
	}
	out, err := UnpackClasses(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip %v -> %v", in, out)
	}
	if _, err := UnpackClasses("0162"); err == nil {
		t.Error("UnpackClasses accepted out-of-range digit")
	}
}

func TestFlagsRoundTrip(t *testing.T) {
	in := []bool{true, false, false, true}
	if got := UnpackFlags(PackFlags(in)); !reflect.DeepEqual(in, got) {
		t.Fatalf("round trip %v -> %v", in, got)
	}
}
