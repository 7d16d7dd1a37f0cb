package server

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
)

// The record encoder deflates the segments of a large sweep stream's
// gzip body (gzip.go). NDJSON sweep chunks repeat by construction:
// every point repeats the same keys, each number shares its leading
// digits with the same field one point earlier, and some fields repeat
// another field's value. So instead of searching hash chains, as
// compress/flate does, the encoder splits its input into atoms, maximal
// runs of number bytes and maximal runs of everything else, and finds
// each atom's match by table lookup. A number starts with a digit, or
// with '-' before a digit, and goes on through 0-9 . e E + -. The rules,
// in order:
//
//  1. the pending match goes on if the atom's bytes repeat at its
//     distance;
//  2. else the atom's last occurrence, found by its content, is the
//     match;
//  3. else a number's match is its longest common prefix of at least
//     minMatch bytes with the last number that followed the same text
//     atom (its key), or of any length when that number lies at the
//     pending match's distance;
//  4. else the atom's bytes, or those past its prefix, are literals.
//
// Matches at one distance merge. Every match is checked byte for byte
// before it is emitted, so the input's structure decides only how good
// the matches are, never whether they are valid: any bytes encode to a
// deflate stream that inflates to them. The encoder writes RFC 1951
// dynamic Huffman blocks itself. DESIGN.md §10 has the measurements.

const (
	minMatch = 3
	maxMatch = 258
	// blockTokens is the most tokens one Huffman block holds.
	blockTokens = 32 << 10
	// atomTableBits sizes the encoder's three tables of last positions.
	atomTableBits = 12

	endOfBlock     = 256
	litLenCodes    = 286
	distCodes      = 30
	codeLenCodes   = 19
	maxCodeBits    = 15
	maxCodeLenBits = 7

	// matchToken marks a match token, which holds length-minMatch in
	// bits 15-22 and distance-1 in bits 0-14; a literal token is its
	// byte.
	matchToken = 1 << 31
)

// The RFC 1951 length and distance codes: each code's base (of
// length-minMatch, of distance-1) and extra bits, and the code of each
// length-minMatch and distance-1 (below 256 directly, else at 256 +
// (distance-1)>>7).
var (
	lengthBase  [29]uint16
	lengthExtra [29]uint8
	lengthCode  [maxMatch - minMatch + 1]uint8
	distBase    [distCodes]uint16
	distExtra   [distCodes]uint8
	distCode    [512]uint8
	// codeLenOrder is the order in which a block header lists the code
	// lengths of the code-length code, and codeLenExtra the extra bits
	// of its run codes: 16 repeats the last length 3-6 times, 17 and 18
	// write 3-10 and 11-138 zeros.
	codeLenOrder = [codeLenCodes]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
	codeLenExtra = [codeLenCodes]uint8{16: 2, 17: 3, 18: 7}
	// numberClass classes the bytes an atom's kind turns on.
	numberClass [256]uint8
)

const (
	classText   = iota // no number holds it
	classDigit         // a number starts with it
	classMinus         // a number starts with it before a digit
	classNumber        // . e E +: a number goes on through it
)

func init() {
	base := 0
	for c := range 28 {
		extra := 0
		if c >= 8 {
			extra = c/4 - 1
		}
		lengthBase[c], lengthExtra[c] = uint16(base), uint8(extra)
		for l := base; l < base+1<<extra; l++ {
			lengthCode[l] = uint8(c)
		}
		base += 1 << extra
	}
	lengthBase[28] = maxMatch - minMatch
	lengthCode[maxMatch-minMatch] = 28

	base = 0
	for c := range distCodes {
		extra := 0
		if c >= 4 {
			extra = c/2 - 1
		}
		distBase[c], distExtra[c] = uint16(base), uint8(extra)
		for d := base; d < base+1<<extra; d++ {
			if d < 256 {
				distCode[d] = uint8(c)
			} else {
				distCode[256+d>>7] = uint8(c)
			}
		}
		base += 1 << extra
	}

	for c := '0'; c <= '9'; c++ {
		numberClass[c] = classDigit
	}
	numberClass['-'] = classMinus
	for _, c := range ".eE+" {
		numberClass[c] = classNumber
	}
}

func distCodeOf(d uint32) uint8 {
	if d < 256 {
		return distCode[d]
	}
	return distCode[256+d>>7]
}

// recordEncoders recycles encoders: their tables and token buffer are
// in use only while a deflater holds a slot.
var recordEncoders = sync.Pool{
	New: func() any { return &recordEncoder{tokens: make([]uint32, 0, blockTokens)} },
}

// recordEncoder deflates one segment at a time; encode resets it.
type recordEncoder struct {
	// The last position+1 (0: none) of a text atom and of a number atom,
	// by the hash of its bytes, and of the number that followed a text
	// atom, by that text atom's hash.
	text, num, key [1 << atomTableBits]int32

	tokens []uint32 // the block being gathered
	w      bitWriter

	// The block's literal/length and distance code counts, kept as its
	// tokens are gathered; all zero between blocks.
	litFreq  [litLenCodes]uint32
	distFreq [distCodes]uint32
	clFreq   [codeLenCodes]uint32
	litLen   [litLenCodes]uint8
	distLen  [distCodes]uint8
	clLen    [codeLenCodes]uint8
	litHuff  [litLenCodes]uint32 // bit-reversed code | length<<16
	distHuff [distCodes]uint32
	clHuff   [codeLenCodes]uint32
	lens     [litLenCodes + distCodes]uint8
	clSyms   [litLenCodes + distCodes]uint16 // code-length symbol | extra<<8
	huff     huffman
}

// encode appends to dst the deflate blocks of buf[start:], whose
// matches may reach back into buf[:start]: the stream's bytes before
// the segment, at most dictBytes of them. The blocks start on a byte
// boundary and end on one, with a sync flush, or with the final block
// when last.
func (e *recordEncoder) encode(dst, buf []byte, start int, last bool) []byte {
	e.w = bitWriter{out: dst}
	e.tokens = e.tokens[:0]
	e.tokenize(buf, start)
	if len(e.tokens) > 0 || last {
		e.writeBlock(last)
	}
	if last {
		e.w.align()
	} else {
		// A sync flush: an empty stored block (BFINAL 0, BTYPE 00), its
		// LEN 0 and NLEN on a byte boundary.
		e.w.put(0, 3)
		e.w.align()
		e.w.out = append(e.w.out, 0, 0, 0xff, 0xff)
	}
	out := e.w.out
	e.w.out = nil
	return out
}

// tokenize gathers the tokens of buf[start:], writing out each block
// that fills. The atoms of buf[:start] only fill the tables, and end at
// start: an atom that ran on into the segment would skip its bytes
// there.
func (e *recordEncoder) tokenize(buf []byte, start int) {
	clear(e.text[:])
	clear(e.num[:])
	clear(e.key[:])
	key := -1 // the hash of the last text atom
	// The pending match: mlen bytes at mpos, mdist back. It always ends
	// where the next atom starts.
	var mpos, mdist, mlen int
	for pos := 0; pos < len(buf); {
		end := len(buf)
		if pos < start {
			end = start
		}
		i, isNum := atomEnd(buf[:end], pos)
		n := i - pos
		h := atomHash(buf[pos:i])
		tbl := &e.text
		if isNum {
			tbl = &e.num
		}
		if pos >= start {
			if mlen > 0 && bytes.Equal(buf[pos:i], buf[pos-mdist:i-mdist]) {
				mlen += n // rule 1
			} else if c := int(tbl[h]) - 1; c >= 0 && pos-c <= dictBytes && bytes.Equal(buf[pos:i], buf[c:c+n]) {
				e.match(buf, mpos, mdist, mlen) // rule 2
				mpos, mdist, mlen = pos, pos-c, n
			} else {
				// Rule 3, checked by commonPrefix, then rule 4.
				l, d := 0, 0
				if isNum && key >= 0 {
					if k := int(e.key[key]) - 1; k >= 0 && pos-k <= dictBytes {
						l, d = commonPrefix(buf[pos:i], buf[k:]), pos-k
					}
				}
				switch {
				case l > 0 && mlen > 0 && d == mdist:
					mlen += l
				case l >= minMatch:
					e.match(buf, mpos, mdist, mlen)
					mpos, mdist, mlen = pos, d, l
				default:
					l = 0
				}
				if l < n {
					e.match(buf, mpos, mdist, mlen)
					mlen = 0
					e.literals(buf[pos+l : i])
				}
			}
		}
		tbl[h] = int32(pos + 1)
		if !isNum {
			key = int(h)
		} else if key >= 0 {
			e.key[key] = int32(pos + 1)
		}
		pos = i
	}
	e.match(buf, mpos, mdist, mlen)
}

// atomEnd returns where the atom at buf[pos] ends, and whether it is a
// number.
func atomEnd(buf []byte, pos int) (int, bool) {
	i := pos + 1
	if startsNumber(buf, pos) {
		for i < len(buf) && numberClass[buf[i]] != classText {
			i++
		}
		return i, true
	}
	for ; i < len(buf); i++ {
		if c := numberClass[buf[i]]; c == classDigit || c == classMinus && startsNumber(buf, i) {
			break
		}
	}
	return i, false
}

func startsNumber(buf []byte, i int) bool {
	switch numberClass[buf[i]] {
	case classDigit:
		return true
	case classMinus:
		return i+1 < len(buf) && numberClass[buf[i+1]] == classDigit
	}
	return false
}

// atomHash hashes an atom's length and its first and last 8 bytes into
// a table index; a collision costs a match, never a wrong one.
func atomHash(a []byte) uint32 {
	var x uint64
	if n := len(a); n >= 8 {
		x = binary.LittleEndian.Uint64(a) ^ bits.RotateLeft64(binary.LittleEndian.Uint64(a[n-8:]), 29)
	} else {
		for _, c := range a {
			x = x<<8 | uint64(c)
		}
	}
	return uint32(((x + uint64(len(a))) * 0x9e3779b97f4a7c15) >> (64 - atomTableBits))
}

// commonPrefix returns how many leading bytes of a b repeats.
func commonPrefix(a, b []byte) int {
	n := 0
	for len(a)-n >= 8 && len(b)-n >= 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)/8
		}
		n += 8
	}
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// literals adds lit's bytes as literal tokens, and counts them.
func (e *recordEncoder) literals(lit []byte) {
	for len(lit) > 0 {
		if len(e.tokens) == blockTokens {
			e.writeBlock(false)
		}
		n := min(len(lit), blockTokens-len(e.tokens))
		tokens := e.tokens[len(e.tokens) : len(e.tokens)+n]
		for i, c := range lit[:n] {
			tokens[i] = uint32(c)
			e.litFreq[c]++
		}
		e.tokens = e.tokens[:len(e.tokens)+n]
		lit = lit[n:]
	}
}

// match adds the n bytes at buf[pos], which repeat dist bytes back, as
// match tokens of at most maxMatch bytes, none under minMatch; under
// minMatch in all, they are literals. It counts the tokens' codes.
func (e *recordEncoder) match(buf []byte, pos, dist, n int) {
	if n < minMatch {
		e.literals(buf[pos : pos+n])
		return
	}
	dc := distCodeOf(uint32(dist - 1))
	for n > 0 {
		l := min(n, maxMatch)
		if r := n - l; r > 0 && r < minMatch {
			l = n - minMatch
		}
		if len(e.tokens) == blockTokens {
			e.writeBlock(false)
		}
		e.tokens = append(e.tokens, matchToken|uint32(l-minMatch)<<15|uint32(dist-1))
		e.litFreq[257+int(lengthCode[l-minMatch])]++
		e.distFreq[dc]++
		n -= l
	}
}

// writeBlock writes the gathered tokens, whose codes literals and match
// counted, as one dynamic Huffman block, the stream's last when final.
// It clears the counts for the next block.
func (e *recordEncoder) writeBlock(final bool) {
	e.litFreq[endOfBlock] = 1
	nlit := e.huff.lengths(e.litFreq[:], e.litLen[:], maxCodeBits)
	nlit = max(nlit, 257)
	// A block with no match still codes one distance, as compress/flate
	// does, rather than lean on RFC 1951's empty distance code.
	if slices.Max(e.distFreq[:]) == 0 {
		e.distFreq[0] = 1
	}
	ndist := e.huff.lengths(e.distFreq[:], e.distLen[:], maxCodeBits)
	canonicalCodes(e.litLen[:nlit], e.litHuff[:nlit])
	canonicalCodes(e.distLen[:ndist], e.distHuff[:ndist])

	// The code lengths of both codes, one sequence, run-length encoded.
	lens := append(append(e.lens[:0], e.litLen[:nlit]...), e.distLen[:ndist]...)
	syms := e.clSyms[:0]
	for i := 0; i < len(lens); {
		l, run := lens[i], 1
		for i+run < len(lens) && lens[i+run] == l {
			run++
		}
		i += run
		if l == 0 {
			for run >= 11 {
				r := min(run, 138)
				syms = append(syms, 18|uint16(r-11)<<8)
				run -= r
			}
			if run >= 3 {
				syms = append(syms, 17|uint16(run-3)<<8)
				run = 0
			}
		} else {
			syms = append(syms, uint16(l))
			for run--; run >= 3; {
				r := min(run, 6)
				syms = append(syms, 16|uint16(r-3)<<8)
				run -= r
			}
		}
		for ; run > 0; run-- {
			syms = append(syms, uint16(l))
		}
	}
	clear(e.clFreq[:])
	for _, s := range syms {
		e.clFreq[s&0xff]++
	}
	e.huff.lengths(e.clFreq[:], e.clLen[:], maxCodeLenBits)
	canonicalCodes(e.clLen[:], e.clHuff[:])
	ncl := codeLenCodes
	for ncl > 4 && e.clLen[codeLenOrder[ncl-1]] == 0 {
		ncl--
	}

	w := &e.w
	header := uint64(2) << 1 // BTYPE 10: dynamic Huffman codes
	if final {
		header |= 1
	}
	w.put(header, 3)
	w.put(uint64(nlit-257), 5)
	w.put(uint64(ndist-1), 5)
	w.put(uint64(ncl-4), 4)
	for _, s := range codeLenOrder[:ncl] {
		w.put(uint64(e.clLen[s]), 3)
	}
	for _, s := range syms {
		w.putCode(e.clHuff[s&0xff])
		w.put(uint64(s>>8), uint(codeLenExtra[s&0xff]))
	}
	for _, t := range e.tokens {
		if t < matchToken {
			w.putCode(e.litHuff[t])
			continue
		}
		l, d := t>>15&0xff, t&0x7fff
		lc := lengthCode[l]
		w.putCode(e.litHuff[257+int(lc)])
		w.put(uint64(l-uint32(lengthBase[lc])), uint(lengthExtra[lc]))
		dc := distCodeOf(d)
		w.putCode(e.distHuff[dc])
		w.put(uint64(d-uint32(distBase[dc])), uint(distExtra[dc]))
	}
	w.putCode(e.litHuff[endOfBlock])
	e.tokens = e.tokens[:0]
	clear(e.litFreq[:])
	clear(e.distFreq[:])
}

// canonicalCodes assigns the RFC 1951 canonical code of each length,
// bit-reversed for an LSB-first writer, packed as code | length<<16.
func canonicalCodes(lens []uint8, codes []uint32) {
	var count, next [maxCodeBits + 1]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	code := uint16(0)
	for b := 1; b <= maxCodeBits; b++ {
		code = (code + count[b-1]) << 1
		next[b] = code
	}
	for s, l := range lens {
		codes[s] = 0
		if l != 0 {
			codes[s] = uint32(bits.Reverse16(next[l])>>(16-l)) | uint32(l)<<16
			next[l]++
		}
	}
}

// huffman is the scratch of a code-length computation.
type huffman struct {
	syms   [litLenCodes]uint16
	weight [2][2 * litLenCodes]uint64
	// leaf[j][i] is whether the i-th item of level j's list is a leaf.
	leaf [maxCodeBits][2 * litLenCodes]bool
}

// lengths sets lens to the code lengths of an optimal prefix code of at
// most limit bits for the symbols of nonzero freq, 0 for the others,
// and returns 1 + the last coded symbol. It uses package-merge, so the
// code is complete for two or more symbols; one symbol gets one bit.
// Ties go by symbol, so the lengths depend on freq alone.
func (h *huffman) lengths(freq []uint32, lens []uint8, limit int) int {
	n, used := 0, 0
	for s, f := range freq {
		lens[s] = 0
		if f > 0 {
			h.syms[n] = uint16(s)
			n++
			used = s + 1
		}
	}
	syms := h.syms[:n]
	if n <= 2 {
		for _, s := range syms {
			lens[s] = 1
		}
		return used
	}
	slices.SortFunc(syms, func(a, b uint16) int {
		if c := cmp.Compare(freq[a], freq[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// Level 0 lists the leaves by weight; each level above merges them
	// with the pairs of the level below, leaves first on a tie.
	prev := h.weight[0][:n]
	for i, s := range syms {
		prev[i] = uint64(freq[s])
		h.leaf[0][i] = true
	}
	for j := 1; j < limit; j++ {
		cur := h.weight[j&1][:0]
		pairs := len(prev) / 2
		for li, pi := 0, 0; li < n || pi < pairs; {
			var lw uint64
			if li < n {
				lw = uint64(freq[syms[li]])
			}
			if pi == pairs || li < n && lw <= prev[2*pi]+prev[2*pi+1] {
				cur = append(cur, lw)
				h.leaf[j][len(cur)-1] = true
				li++
			} else {
				cur = append(cur, prev[2*pi]+prev[2*pi+1])
				h.leaf[j][len(cur)-1] = false
				pi++
			}
		}
		prev = cur
	}
	// The first 2n-2 items of the top level make the code: a leaf gains a
	// bit at each level its item is among those taken, and the pairs taken
	// at one level take their items from the level below.
	for j, k := limit-1, 2*n-2; j >= 0 && k > 0; j-- {
		m := 0
		for _, leaf := range h.leaf[j][:k] {
			if leaf {
				m++
			}
		}
		for _, s := range syms[:m] {
			lens[s]++
		}
		k = 2 * (k - m)
	}
	return used
}

// bitWriter writes bits LSB first through a 64-bit accumulator, six
// bytes at a time.
type bitWriter struct {
	out   []byte
	bits  uint64
	nbits uint
}

// put writes the n low bits of b; n is at most 16.
func (w *bitWriter) put(b uint64, n uint) {
	w.bits |= b << w.nbits
	w.nbits += n
	if w.nbits >= 48 {
		w.spill()
	}
}

// putCode writes a code packed as code | length<<16.
func (w *bitWriter) putCode(c uint32) {
	w.put(uint64(c&0xffff), uint(c>>16))
}

func (w *bitWriter) spill() {
	b := w.bits
	w.out = append(w.out, byte(b), byte(b>>8), byte(b>>16), byte(b>>24), byte(b>>32), byte(b>>40))
	w.bits >>= 48
	w.nbits -= 48
}

// align writes the pending bits out, padded with zeros to a byte.
func (w *bitWriter) align() {
	for w.nbits > 0 {
		w.out = append(w.out, byte(w.bits))
		w.bits >>= 8
		w.nbits -= min(w.nbits, 8)
	}
}
