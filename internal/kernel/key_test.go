package kernel

import (
	"bytes"
	"crypto/sha256"
	"sync"
	"testing"
)

// TestProgramDigest pins the program's single key encoding: Digest is the
// SHA-256 of AppendKey's bytes, AppendKey keeps what b already holds, and
// concurrent first calls to Digest agree (run under -race, the latch is
// what makes them race-free).
func TestProgramDigest(t *testing.T) {
	want := sha256.Sum256(buildVecAdd(t).AppendKey(nil))

	p := buildVecAdd(t)
	const callers = 8
	got := make([][32]byte, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = p.Digest()
		}()
	}
	wg.Wait()
	for i, d := range got {
		if d != want {
			t.Fatalf("caller %d: Digest %x, sha256 of AppendKey %x", i, d, want)
		}
	}

	enc := p.AppendKey(nil)
	if len(enc) != 4*8+len(p.Instrs)*instrKeyBytes {
		t.Errorf("AppendKey wrote %d bytes, want %d", len(enc), 4*8+len(p.Instrs)*instrKeyBytes)
	}
	prefix := []byte("prefix")
	if b := p.AppendKey(prefix); !bytes.HasPrefix(b, prefix) || !bytes.Equal(b[len(prefix):], enc) {
		t.Error("AppendKey did not append its encoding after the bytes it was given")
	}
}
