package errcode

import (
	"errors"
	"fmt"
	"testing"
)

// TestTableEntriesResolveToThemselves: every entry is documented, and its
// code and its sentinel (wrapped or not) lead back to that entry, so no
// entry shadows another in Lookup or Of.
func TestTableEntriesResolveToThemselves(t *testing.T) {
	for i, o := range table {
		if o.Code == "" || o.Err == nil || o.doc == "" {
			t.Errorf("entry %d is incomplete: %+v", i, o)
		}
		if got := Lookup(o.Code); got.Code != o.Code || !errors.Is(got.Err, o.Err) {
			t.Errorf("Lookup(%q) = %+v", o.Code, got)
		}
		if got := Of(fmt.Errorf("context: %w", o.Err)); got.Code != o.Code {
			t.Errorf("Of(wrapped %v) = %q, want %q", o.Err, got.Code, o.Code)
		}
	}
	if got := Of(errors.New("other")); got.Code != "" || got.Err != nil || got.Class != Permanent {
		t.Errorf("Of(untabled error) = %+v, want the zero Outcome", got)
	}
	if got := Lookup(""); got.Err != nil {
		t.Errorf("Lookup(\"\") = %+v, want the zero Outcome", got)
	}
}
