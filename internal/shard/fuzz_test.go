package shard

import (
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzDecodeOps feeds DecodeOps arbitrary word slices, built from the raw
// fuzz bytes eight at a time. It must never panic, and every payload it
// accepts must re-encode through EncodeOps to exactly the words it came
// from — the mutation frame codec has one valid encoding per op list.
func FuzzDecodeOps(f *testing.F) {
	words := func(ws ...int64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, uint64(w))
		}
		return b
	}
	f.Add([]byte(nil))
	f.Add(words(EncodeOps(nil, []Op{{Kind: OpInsert, Value: -7}, {Kind: OpDelete, Index: 3}, {Kind: OpUpdate, Index: 1 << 40, Value: 1 << 62}})...))
	f.Add(words(int64(OpUpdate)))                   // odd length
	f.Add(words(0, 5))                              // kind 0
	f.Add(words(int64(OpUpdate)+1, 5))              // kind past OpUpdate
	f.Add(words(-1<<8|int64(OpInsert), 5))          // negative index
	f.Add(words(int64(OpDelete)|0x7fffffff<<8, -1)) // large index
	f.Fuzz(func(t *testing.T, raw []byte) {
		var in []int64
		for i := 0; i+8 <= len(raw); i += 8 {
			in = append(in, int64(binary.LittleEndian.Uint64(raw[i:])))
		}
		ops, err := DecodeOps(nil, in)
		if err != nil {
			return
		}
		if len(ops) != len(in)/2 {
			t.Fatalf("decoded %d ops from %d words", len(ops), len(in))
		}
		if out := EncodeOps(nil, ops); !slices.Equal(out, in) {
			t.Fatalf("re-encoding %v gave %v, want %v", ops, out, in)
		}
	})
}
