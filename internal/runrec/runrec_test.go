package runrec

import (
	"errors"
	"fmt"
	"testing"

	"anonshm/internal/exitcode"
	"anonshm/internal/explore"
)

func TestOutcome(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, "ok"},
		{exitcode.WithCode(exitcode.Stalled, explore.ErrStalled), "stalled"},
		{fmt.Errorf("run canceled%.0w", explore.ErrCanceled), "canceled"},
		{exitcode.Violated("snapshot safety", errors.New("incomparable")), "violation"},
		{errors.New("disk full"), "error"},
	}
	for _, tc := range cases {
		if got := outcome(tc.err); got != tc.want {
			t.Errorf("outcome(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}
