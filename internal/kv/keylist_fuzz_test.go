package kv

import (
	"bytes"
	"strings"
	"testing"
)

// TestReadKeyListRejectsOversizedCount is the out-of-memory regression: a
// 12-byte input declaring 2^40 values must fail with an error instead of
// pre-allocating a terabyte-scale value slice.
func TestReadKeyListRejectsOversizedCount(t *testing.T) {
	in := AppendBytes(nil, []byte("k"))
	in = AppendVLong(in, 1<<40)
	in = append(in, 0, 0, 0) // three empty values' worth of prefix bytes
	if len(in) != 12 {
		t.Fatalf("crasher is %d bytes, want 12", len(in))
	}
	_, _, err := ReadKeyList(in)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("ReadKeyList(oversized count) err = %v, want a count-exceeds-input error", err)
	}
}

// FuzzReadKeyList decodes arbitrary bytes as a framed key-list: decoding
// must never panic, and whatever decodes must re-encode canonically and
// round-trip exactly. Each input is also split into a key and values and
// pushed through encode→decode, which must reproduce them byte for byte.
func FuzzReadKeyList(f *testing.F) {
	f.Add(AppendKeyList(nil, KeyList{Key: []byte("word"), Values: [][]byte{[]byte("1"), []byte("2"), []byte("3")}}))
	f.Add(AppendKeyList(nil, KeyList{Key: []byte("k")}))
	f.Add(AppendKeyList(nil, KeyList{Key: []byte("big"), Values: [][]byte{bytes.Repeat([]byte{0xAB}, 300)}}))
	f.Add([]byte{})
	f.Add(append(AppendVLong(AppendBytes(nil, []byte("k")), 1<<40), 0, 0, 0)) // 2^40 values declared
	f.Fuzz(func(t *testing.T, data []byte) {
		if kl, n, err := ReadKeyList(data); err == nil {
			if n < 0 || n > len(data) {
				t.Fatalf("consumed %d of %d bytes", n, len(data))
			}
			enc := AppendKeyList(nil, kl)
			if len(enc) != KeyListSize(kl) {
				t.Fatalf("KeyListSize = %d, encoded %d", KeyListSize(kl), len(enc))
			}
			roundTrip(t, kl, enc)
		}

		// Build a key-list from the input itself: the first byte picks
		// the key length, the rest is cut into values of cycling sizes.
		var kl KeyList
		if len(data) > 0 {
			klen := int(data[0]) % len(data)
			kl.Key, data = data[1:1+klen], data[1+klen:]
		}
		for i := 0; len(data) > 0; i++ {
			vlen := i % 5
			if vlen > len(data) {
				vlen = len(data)
			}
			kl.Values, data = append(kl.Values, data[:vlen]), data[vlen:]
		}
		roundTrip(t, kl, AppendKeyList(nil, kl))
	})
}

// roundTrip requires enc, the canonical encoding of want, to decode back to
// want exactly, consuming all of enc.
func roundTrip(t *testing.T, want KeyList, enc []byte) {
	t.Helper()
	got, n, err := ReadKeyList(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("canonical encoding failed to decode: n=%d of %d, err=%v", n, len(enc), err)
	}
	if !bytes.Equal(got.Key, want.Key) || len(got.Values) != len(want.Values) {
		t.Fatalf("round trip: key %q/%d values, want %q/%d", got.Key, len(got.Values), want.Key, len(want.Values))
	}
	for i := range want.Values {
		if !bytes.Equal(got.Values[i], want.Values[i]) {
			t.Fatalf("round trip value %d: %x, want %x", i, got.Values[i], want.Values[i])
		}
	}
}
