package core

import (
	"bytes"
	"testing"
)

// The restore step decodes journal records a dead incarnation wrote, possibly
// torn by the crash. These targets hold the two engine-level journal decoders
// to the untrusted-input contract: never panic, and every accepted input is
// the canonical encoding of what it decodes to.

func FuzzSourceMarkDecode(f *testing.F) {
	f.Add(sourceMark{}.encode())
	f.Add(sourceMark{Thread: 3, Consumed: 4096, Updates: 4000, Epoch: 9, Wm: 1234, Inc: 2, Done: true}.encode())
	f.Add(sourceMark{Thread: 1<<32 - 1, Consumed: -1, Updates: -1, Epoch: ^uint64(0), Wm: -1 << 63, Inc: 255}.encode())
	f.Add(make([]byte, sourceMarkSize-1))
	f.Add(append(make([]byte, sourceMarkSize-1), 2)) // done byte neither 0 nor 1
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := decodeSourceMark(p)
		if err != nil {
			return
		}
		if got := m.encode(); !bytes.Equal(got, p) {
			t.Fatalf("decode accepted %x, re-encodes as %x", p, got)
		}
	})
}

func FuzzEmitsDecode(f *testing.F) {
	f.Add(encodeEmits(0, nil))
	f.Add(encodeEmits(7, []emitRec{{tag: 0, key: 1, a: -5}, {tag: 1, key: ^uint64(0), a: 3, b: 4}}))
	f.Add(encodeEmits(1, []emitRec{{tag: 2}}))                    // unknown row tag
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // count far past the payload
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, p []byte) {
		win, rows, err := decodeEmits(p)
		if err != nil {
			return
		}
		if got := encodeEmits(win, rows); !bytes.Equal(got, p) {
			t.Fatalf("decode accepted %x, re-encodes as %x", p, got)
		}
	})
}
