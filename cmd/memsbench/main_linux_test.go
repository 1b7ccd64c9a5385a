package main

import (
	"io"
	"testing"
)

// A heap profile that cannot be written is an error, not a silent empty
// file: /dev/full accepts the open and fails every write with ENOSPC.
func TestRunMemprofileWriteError(t *testing.T) {
	if err := run([]string{"-run", "table1", "-memprofile", "/dev/full"}, io.Discard); err == nil {
		t.Fatal("heap profile write to /dev/full reported no error")
	}
}
