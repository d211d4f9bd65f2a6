// Exact float64 conversions for the JSON codec's scores. Both directions
// return strconv's result bit for bit and byte for byte, and hand every
// input outside their windows to strconv itself.
//
// Encoding: when 1e-4 ≤ |f| < 1e6, strconv's shortest 'g' form is its %f
// form. There appendJSONFloat finds the shortest digits with Schubfach
// (Giulietti, 2020) and writes them eight at a time; everything else goes to
// strconv.AppendFloat.
//
// Decoding: jscan.decimal reads a plain decimal -?d+(.d+)? in one pass, eight
// digits per load where eight remain, as m·10^-k with m < 10^19 and
// k ≤ maxFrac. If m < 2^53 one division is exact (Clinger); otherwise
// Eisel–Lemire (Lemire, 2021) rounds m·10^-k with a 128-bit product.
// Anything else, and Eisel–Lemire's rare undecidable case, leaves the cursor
// where it was for numToken and strconv.ParseFloat.
package server

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/bits"
	"reflect"
	"strconv"
)

// maxFrac is the most fraction digits the decimal fast path takes. The
// encoder's window prints at most 20 (three leading zeros and 17 digits).
const maxFrac = 22

// The kernel's tables, computed at init. Schubfach scales by
// 10^n = 5^n·2^n for n ≤ 20 and Eisel–Lemire by 10^-k for k ≤ maxFrac.
var (
	// pow5[n] is 5^n, exact.
	pow5 [maxFrac + 1]uint64
	// pow10[n] is 10^n, which float64 represents exactly.
	pow10 [maxFrac + 1]float64
	// negPow10[k] is 10^-k's 128-bit mantissa {hi, lo}, rounded down as
	// strconv's table has it: ⌊2^(128+b)/5^k⌋ for 2^b < 5^k < 2^(b+1).
	negPow10 [maxFrac + 1][2]uint64
)

func init() {
	p, f := uint64(1), 1.0
	negPow10[0] = [2]uint64{1 << 63, 0}
	for n := range pow5 {
		pow5[n], pow10[n] = p, f
		if n > 0 {
			hi, r := bits.Div64(1<<(bits.Len64(p)-1), 0, p)
			lo, _ := bits.Div64(r, 0, p)
			negPow10[n] = [2]uint64{hi, lo}
		}
		p, f = p*5, f*10
	}
}

// appendJSONFloat appends f as strconv.AppendFloat(b, f, 'g', -1, 64) does.
// JSON has no NaN or infinity, so for those it fails as encoding/json does
// instead of writing a token every decoder rejects.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if a := math.Abs(f); a >= 1e-4 && a < 1e6 {
		return appendShortest(b, f), nil
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64), nil
}

// appendShortest appends f, 1e-4 ≤ |f| < 1e6, in %f form with the fewest
// digits that read back as f, the nearest of them to f on a tie in length.
func appendShortest(b []byte, f float64) []byte {
	u := math.Float64bits(f)
	c := u&(1<<52-1) | 1<<52
	q := int(u>>52&0x7FF) - 1075 // f = c·2^q, -66 ≤ q ≤ -33
	// Schubfach: f's rounding interval is [cb-2, cb+2]·2^(q-2). Scaled by
	// 10^-k for k = ⌊log10(2^q)⌋, it is at least 1 and under 10 wide, so it
	// holds one or more integers and at most one multiple of ten. lower, vb
	// and upper are its ends and f so scaled, times 4 and rounded to odd. In
	// this window the scale keeps a binary fraction in both ends, so no
	// candidate lands on one and whether they are closed does not matter.
	// Schubfach narrows the lower half for a power of two, whose lower
	// neighbour is nearer; the window's 33 powers of two print the same
	// without that (TestAppendJSONFloatMatchesStrconv checks each).
	cb, k := c<<2, (q*1262611)>>22
	n := -k
	sh := uint(-q - n)
	lower, vb, upper := scaleToOdd(cb-2, n, sh), scaleToOdd(cb, n, sh), scaleToOdd(cb+2, n, sh)
	s := vb >> 2
	d, up := s, false
	if sp := s / 10; (lower <= 40*sp) != (40*sp+40 <= upper) { // one digit fewer
		d, k, up = sp, k+1, 40*sp+40 <= upper
	} else if (lower <= 4*s) != (4*s+4 <= upper) {
		up = 4*s+4 <= upper
	} else { // both in: the nearer, the even one on a tie
		mid := 4*s + 2
		up = vb > mid || vb == mid && s&1 != 0
	}
	if up {
		d++
	}

	// f = d·10^k with 15 to 17 digits in d: the first digit goes to buf[7],
	// the next eight to buf[8:16], the last eight to buf[16:24].
	var buf [32]byte
	hi, lo := d/1e8, d%1e8
	top := hi / 1e8
	vh, vl := digits8(uint32(hi-top*1e8)), digits8(uint32(lo))
	buf[7] = byte(top) + '0'
	binary.LittleEndian.PutUint64(buf[8:], vh|0x3030303030303030)
	binary.LittleEndian.PutUint64(buf[16:], vl|0x3030303030303030)
	start, end := 7, 24-bits.LeadingZeros64(vl)/8
	if top == 0 {
		start = 8 + bits.TrailingZeros64(vh)/8
	}
	if vl == 0 {
		end -= bits.LeadingZeros64(vh) / 8
	}
	dp, nd := 24-start+k, end-start // the point sits dp digits in
	switch {
	case dp <= 0: // -3 ≤ dp
		start -= copy(buf[start-2+dp:], "0.000"[:2-dp])
	case dp < nd:
		copy(buf[start-1:], buf[start:start+dp])
		buf[start+dp-1] = '.'
		start--
	default: // dp ≤ 6
		end += copy(buf[end:], "00000"[:dp-nd])
	}
	if u>>63 != 0 {
		start--
		buf[start] = '-'
	}
	return append(b, buf[start:end]...)
}

// scaleToOdd returns x·5^n / 2^sh rounded to odd: the floor, with the low
// bit set when the quotient is inexact. The caller keeps it below 2^64.
func scaleToOdd(x uint64, n int, sh uint) uint64 {
	hi, lo := bits.Mul64(x, pow5[n])
	r := hi<<(64-sh) | lo>>sh
	if lo<<(64-sh) != 0 {
		r |= 1
	}
	return r
}

// digits8 returns x < 10^8's eight decimal digits as byte values 0–9, the
// most significant in the low byte, splitting 4+4, 2+2 and 1+1 digits in
// parallel lanes (Khuong's method).
func digits8(x uint32) uint64 {
	v := uint64(x/10000) | uint64(x%10000)<<32
	h := (v * 10486 >> 20) & 0x0000007F0000007F // lane/100 for lane < 10^4
	v = h | (v-100*h)<<16
	t := (v * 103 >> 10) & 0x000F000F000F000F // lane/10 for lane < 100
	return t | (v-10*t)<<8
}

// decimal parses a plain decimal -?d+(.d+)? at the cursor in one pass, as
// m·10^-k with at most 19 significant digits in m and k ≤ maxFrac. For
// m < 2^53 both m and 10^k are exact float64 values, so one IEEE division
// rounds correctly (Clinger); for larger m, Eisel–Lemire does. Either gives
// the bits strconv.ParseFloat returns. For anything else (an exponent, an m
// or k past those bounds, a token that goes on with e, E, +, - or ., or an
// Eisel–Lemire ambiguity) ok is false and the cursor stays put.
func (s *jscan) decimal() (f float64, ok bool) {
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	i, m, nd := digitRun(b, i, 0, 0)
	if i == start {
		return 0, false
	}
	k := 0
	if i < len(b) && b[i] == '.' {
		point := i + 1
		if i, m, nd = digitRun(b, point, m, nd); i == point {
			return 0, false
		}
		k = i - point
	}
	if nd > 19 || k > maxFrac {
		return 0, false
	}
	if i < len(b) {
		switch b[i] {
		case 'e', 'E', '+', '-', '.':
			return 0, false
		}
	}
	if m < 1<<53 {
		f = float64(m) / pow10[k]
	} else if f, ok = eiselLemire(m, k); !ok {
		return 0, false
	}
	if neg {
		f = -f
	}
	s.i = i
	return f, true
}

// digitRun appends the decimal digits at b[i:] to m, eight per load while
// eight bytes remain, and adds to nd those from m's first non-zero digit on.
// It returns the index past the run. Past 19 digits m is meaningless.
func digitRun(b []byte, i int, m uint64, nd int) (int, uint64, int) {
	for ; len(b)-i >= 8; i += 8 {
		v := binary.LittleEndian.Uint64(b[i:])
		if v&0xF0F0F0F0F0F0F0F0|(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 != 0x3333333333333333 {
			break // not eight digits
		}
		v -= 0x3030303030303030
		if m != 0 {
			nd += 8
		} else {
			nd += 8 - bits.TrailingZeros64(v)/8 // leading zeros are not significant
		}
		v = v*10 + v>>8 // pairs
		m = m*1e8 + (v&0xFF000000FF*0x000F424000000064+(v>>16)&0xFF000000FF*0x0000271000000001)>>32
	}
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		if m|uint64(d) != 0 {
			m = m*10 + uint64(d)
			nd++
		}
	}
	return i, m, nd
}

// eiselLemire rounds m·10^-k, m ≥ 2^53 and k ≤ maxFrac, to the nearest
// float64 as strconv's eiselLemire64 does, or reports false where the
// truncated 128-bit power cannot decide the rounding.
func eiselLemire(m uint64, k int) (float64, bool) {
	clz := bits.LeadingZeros64(m)
	m <<= clz
	exp2 := uint64(-217706*k>>16+64+1023) - uint64(clz)
	p := &negPow10[k]
	xHi, xLo := bits.Mul64(m, p[0])
	if xHi&0x1FF == 0x1FF && xLo+m < m {
		yHi, yLo := bits.Mul64(m, p[1])
		mHi, mLo := xHi, xLo+yHi
		if mLo < xLo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+m < m {
			return 0, false
		}
		xHi, xLo = mHi, mLo
	}
	msb := xHi >> 63
	mant := xHi >> (msb + 9)
	exp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && mant&3 == 1 {
		return 0, false // halfway between two floats
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	return math.Float64frombits(exp2<<52 | mant&(1<<52-1)), true
}
