package server

import (
	"bytes"
	"cmp"
	"compress/flate"
	"io"
	"slices"
	"testing"
)

// inflate decodes a raw deflate stream whose matches may reach into
// dict.
func inflate(tb testing.TB, deflated, dict []byte) []byte {
	tb.Helper()
	out, err := io.ReadAll(flate.NewReaderDict(bytes.NewReader(deflated), dict))
	if err != nil {
		tb.Fatalf("inflate %d bytes: %v", len(deflated), err)
	}
	return out
}

// encodeSegment deflates body as one segment after dict, with a pooled
// encoder.
func encodeSegment(dst, dict, body []byte, last bool) []byte {
	e := recordEncoders.Get().(*recordEncoder)
	defer recordEncoders.Put(e)
	buf := append(append([]byte(nil), dict...), body...)
	return e.encode(dst, buf, len(dict), last)
}

// FuzzRecordEncoder holds the record encoder to compress/flate's reader
// on an arbitrary dictionary (its last dictBytes) and body: the body
// deflated as a final segment, and as a non-final segment followed by
// an empty final one, must inflate to the body exactly. The committed
// seeds reach the format's edges: empty and one-byte bodies, a
// 600-digit number (matches split at maxMatch), an atom repeated at
// distance dictBytes and at one byte past it, every byte value, an atom
// that starts in the dictionary and ends in the body, and a stream
// chunk line.
func FuzzRecordEncoder(f *testing.F) {
	f.Add([]byte(`{"seq":0,"points":[{"intensity":0.5,`), []byte(`"regime":"M","flops_per_sec":1.5e+09}]}`+"\n"))
	f.Fuzz(func(t *testing.T, dict, body []byte) {
		dict = dict[max(0, len(dict)-dictBytes):]
		if got := inflate(t, encodeSegment(nil, dict, body, true), dict); !bytes.Equal(got, body) {
			t.Fatalf("final segment inflates to %d bytes, want the %d-byte body", len(got), len(body))
		}
		synced := encodeSegment(nil, dict, body, false)
		history := append(slices.Clip(dict), body...)
		synced = encodeSegment(synced, history[max(0, len(history)-dictBytes):], nil, true)
		if got := inflate(t, synced, dict); !bytes.Equal(got, body) {
			t.Fatalf("synced segment and empty final one inflate to %d bytes, want the %d-byte body", len(got), len(body))
		}
	})
}

// TestHuffmanLengthLimits: Fibonacci frequencies make a Huffman tree
// deeper than deflate allows on both alphabets it limits; the lengths
// built for them stay within 15 bits on the literal/length alphabet and
// 7 on the code-length one, and form a complete code (Kraft sum 1).
func TestHuffmanLengthLimits(t *testing.T) {
	var h huffman
	for _, c := range []struct {
		name           string
		symbols, limit int
	}{
		{"literal/length", litLenCodes, maxCodeBits},
		{"code length", codeLenCodes, maxCodeLenBits},
	} {
		// The sequence starts over every 40 symbols, well before a
		// count would overflow.
		freq := make([]uint32, c.symbols)
		for i := range freq {
			a, b := uint32(1), uint32(1)
			for range i % 40 {
				a, b = b, a+b
			}
			freq[i] = a
		}
		if d := huffmanDepth(freq); d <= c.limit {
			t.Fatalf("%s: an unlimited Huffman tree is %d deep, want past the %d-bit limit", c.name, d, c.limit)
		}
		lens := make([]uint8, c.symbols)
		if used := h.lengths(freq, lens, c.limit); used != c.symbols {
			t.Errorf("%s: %d symbols coded, want %d", c.name, used, c.symbols)
		}
		kraft := 0
		for s, l := range lens {
			if l == 0 || int(l) > c.limit {
				t.Fatalf("%s: symbol %d has a %d-bit code, want 1-%d", c.name, s, l, c.limit)
			}
			kraft += 1 << (c.limit - int(l))
		}
		if kraft != 1<<c.limit {
			t.Errorf("%s: Kraft sum %d/%d, want exactly 1", c.name, kraft, 1<<c.limit)
		}
	}
}

// huffmanDepth returns the depth of an unlimited Huffman tree over the
// nonzero frequencies.
func huffmanDepth(freq []uint32) int {
	type node struct {
		weight uint64
		depth  int
	}
	var nodes []node
	for _, f := range freq {
		if f > 0 {
			nodes = append(nodes, node{weight: uint64(f)})
		}
	}
	for len(nodes) > 1 {
		slices.SortFunc(nodes, func(a, b node) int { return cmp.Compare(a.weight, b.weight) })
		a, b := nodes[0], nodes[1]
		nodes = append(nodes[2:], node{a.weight + b.weight, max(a.depth, b.depth) + 1})
	}
	return nodes[0].depth
}

// TestRecordEncoderCorners: blocks at the format's edges inflate to
// their body: literals only, which still codes one distance; a single
// literal symbol; and an empty final segment.
func TestRecordEncoderCorners(t *testing.T) {
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"literals only", []byte("the quick brown fox jumps over a lazy dog")},
		{"one literal symbol", []byte("zzzz")},
		{"empty final segment", nil},
	} {
		out := encodeSegment(nil, nil, c.body, true)
		if got := inflate(t, out, nil); !bytes.Equal(got, c.body) {
			t.Errorf("%s: inflates to %q, want %q", c.name, got, c.body)
		}
		// The header's first 13 bits: BFINAL, BTYPE, HLIT-257, HDIST-1.
		if hdist := out[1]&0x1f + 1; out[0]&7 != 5 || hdist != 1 {
			t.Errorf("%s: header %08b %08b, want a final dynamic block coding one distance", c.name, out[0], out[1])
		}
	}
}
