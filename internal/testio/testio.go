// Package testio provides test helpers for exercising the cmd/ and
// examples/ binaries in-process: their main paths print to os.Stdout,
// so smoke tests swap it for a pipe and assert on the captured text.
// It also holds the injection cases every router's admission check
// must refuse, shared by the simnet, leveled and mesh tests.
package testio

import (
	"io"
	"os"
	"testing"
)

// CaptureStdout runs f with os.Stdout redirected into a pipe and
// returns everything written. os.Stdout is restored before returning,
// including when f panics (the panic propagates).
func CaptureStdout(t testing.TB, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("testio: pipe: %v", err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	defer func() {
		os.Stdout = old
		w.Close() // no-op if already closed
	}()
	f()
	if err := w.Close(); err != nil {
		t.Fatalf("testio: close pipe: %v", err)
	}
	return <-done
}
