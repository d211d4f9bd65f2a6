package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"venn/internal/stats"
)

// jsonFloatBoundaries is where a float formatter goes wrong: the powers of
// two 2^e for lo ≤ e ≤ hi and the powers of ten 10^±k for k ≤ 30,
// each with both neighbours, the encode window's edges, subnormals, zeros
// and the extremes, each with both signs.
func jsonFloatBoundaries(lo, hi int) []float64 {
	var fs []float64
	near := func(f float64) {
		fs = append(fs, math.Nextafter(f, math.Inf(-1)), f, math.Nextafter(f, math.Inf(1)))
	}
	for e := lo; e <= hi; e++ {
		near(math.Ldexp(1, e))
	}
	for k := 0; k <= 30; k++ {
		near(math.Pow10(k))
		near(math.Pow10(-k))
	}
	near(1e-4)
	near(1e6)
	fs = append(fs, 5e-324, 1e-310, math.SmallestNonzeroFloat64*3, 0x1p-1022-0x1p-1074,
		0, math.MaxFloat64)
	for _, f := range fs {
		fs = append(fs, -f)
	}
	return fs
}

// checkJSONFloat requires appendJSONFloat to write strconv's shortest 'g'
// bytes for f, or encoding/json's error for a non-finite f, and the bytes to
// parse back through jscan.float to f's bits with the cursor at their end.
func checkJSONFloat(t testing.TB, f float64, got, want []byte) ([]byte, []byte) {
	got, err := appendJSONFloat(got[:0], f)
	want = strconv.AppendFloat(want[:0], f, 'g', -1, 64)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		var uv *json.UnsupportedValueError
		if !errors.As(err, &uv) || uv.Str != string(want) || len(got) != 0 {
			t.Fatalf("%v: got %q, %v; want encoding/json's error", f, got, err)
		}
		return got, want
	}
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%v (%#x): got %q, %v; strconv writes %q", f, math.Float64bits(f), got, err, want)
	}
	s := jscan{b: got}
	back, err := s.float()
	if err != nil || math.Float64bits(back) != math.Float64bits(f) || s.i != len(got) {
		t.Fatalf("%q read back as %v (%#x), %v, cursor %d; want %#x", got, back, math.Float64bits(back), err, s.i, math.Float64bits(f))
	}
	return got, want
}

// exhaustiveCases scales a conversion test's case count to the build.
func exhaustiveCases(n int) int {
	if raceEnabled {
		return n / 20
	}
	return n
}

func TestAppendJSONFloatMatchesStrconv(t *testing.T) {
	var got, want []byte
	for _, f := range jsonFloatBoundaries(-1074, 1023) {
		got, want = checkJSONFloat(t, f, got, want)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		got, want = checkJSONFloat(t, f, got, want)
	}
	bitsRNG := rand.New(rand.NewSource(1))
	for i := 0; i < exhaustiveCases(1_000_000); i++ {
		got, want = checkJSONFloat(t, math.Float64frombits(bitsRNG.Uint64()), got, want)
	}
	// Random bit patterns rarely land in the encode window (binary exponents
	// -14 to 19), so draw as many again from inside it.
	for i := 0; i < exhaustiveCases(1_000_000); i++ {
		u := bitsRNG.Uint64()
		e := uint64(1023-14) + u>>58%34
		got, want = checkJSONFloat(t, math.Float64frombits(u&(1<<63|1<<52-1)|e<<52), got, want)
	}
	// Binary fractions with at most 31 significant bits, where f scaled to
	// its digits can fall exactly halfway between two of them.
	for i := 0; i < exhaustiveCases(1_000_000); i++ {
		m := bitsRNG.Int63n(1<<(1+bitsRNG.Intn(31))) | 1
		got, want = checkJSONFloat(t, math.Ldexp(float64(m), -bitsRNG.Intn(60)), got, want)
	}
	// Scores are what the decode fast path exists for: it must take every
	// one the encode window prints. (It may refuse a 17-digit exact binary
	// fraction such as 7210.2872314453125, where Eisel–Lemire's truncated
	// power cannot decide.)
	scores := stats.NewRNG(1)
	for i := 0; i < exhaustiveCases(200_000); i++ {
		f := scores.Float64()
		got, want = checkJSONFloat(t, f, got, want)
		if _, ok := (&jscan{b: got}).decimal(); f >= 1e-4 && !ok {
			t.Fatalf("%q: the decimal fast path refused it", got)
		}
	}
}

// FuzzJSONFloatAppend: for any float64 bit pattern, appendJSONFloat writes
// strconv's bytes, or encoding/json's error for NaN and infinities, and what
// it writes reads back to the same bits. The seeds are the boundary set with
// powers of two from 2^-30 to 2^40, about 800 values: with all 13,000 the
// fuzzer spends a 15 s run gathering baseline coverage, and
// TestAppendJSONFloatMatchesStrconv checks them all anyway.
func FuzzJSONFloatAppend(f *testing.F) {
	for _, v := range jsonFloatBoundaries(-30, 40) {
		f.Add(math.Float64bits(v))
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), 0.14006423950195312, 2937.8096313476562} {
		f.Add(math.Float64bits(v)) // the last two round a halfway digit to even
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		checkJSONFloat(t, math.Float64frombits(u), nil, nil)
	})
}

// TestDecimalMatchesParseFloat holds the decode fast path to strconv on the
// inputs that reach Eisel–Lemire: 16 to 20 significant digits with 0 to 23
// fraction digits, which straddle the 2^53 and 19-digit bounds and the
// fraction-digit limit.
func TestDecimalMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	digits := make([]byte, 20)
	for i := 0; i < exhaustiveCases(300_000); i++ {
		for j := range digits {
			digits[j] = byte('0' + rng.Intn(10))
		}
		ds, k := string(digits[:16+rng.Intn(5)]), rng.Intn(24)
		if k >= len(ds) {
			ds = strings.Repeat("0", k-len(ds)+1) + ds
		}
		if k > 0 {
			ds = ds[:len(ds)-k] + "." + ds[len(ds)-k:]
		}
		if rng.Intn(2) == 0 {
			ds = "-" + ds
		}
		b := []byte(ds + ",")
		got, want := jscan{b: b}, jscan{b: b}
		gf, gerr := got.float()
		wf, werr := refFloat(&want)
		if gerr != nil || werr != nil || math.Float64bits(gf) != math.Float64bits(wf) || got.i != want.i {
			t.Fatalf("%q: %v (%#x) %v cursor %d, reference %v (%#x) %v cursor %d",
				b, gf, math.Float64bits(gf), gerr, got.i, wf, math.Float64bits(wf), werr, want.i)
		}
	}
}

// TestNegPow10MatchesStrconv checks the init-computed Eisel–Lemire table
// against entries of strconv's detailedPowersOfTen, as {hi, lo}.
func TestNegPow10MatchesStrconv(t *testing.T) {
	for k, want := range map[int][2]uint64{
		0:  {0x8000000000000000, 0x0000000000000000},
		1:  {0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		2:  {0xA3D70A3D70A3D70A, 0x3D70A3D70A3D70A3},
		21: {0x971DA05074DA7BEE, 0xD3F6FC16EBCA5E03},
		22: {0xF1C90080BAF72CB1, 0x5324C68B12DD6338},
	} {
		if negPow10[k] != want {
			t.Errorf("10^-%d: %#x, strconv has %#x", k, negPow10[k], want)
		}
	}
}

// jsonFloatScores are seed-1 scores like the bench fleet's: uniform in
// [0, 1), mostly 16 or 17 significant digits.
func jsonFloatScores() []float64 {
	rng := stats.NewRNG(1)
	fs := make([]float64, 1024)
	for i := range fs {
		fs[i] = rng.Float64()
	}
	return fs
}

// parsedSink keeps BenchmarkJSONFloat's parses from being optimized away.
var parsedSink float64

// BenchmarkJSONFloat times one score's conversion each way, the kernel
// against strconv.
func BenchmarkJSONFloat(b *testing.B) {
	fs := jsonFloatScores()
	text := make([][]byte, len(fs))
	for i, f := range fs {
		text[i] = append(strconv.AppendFloat(nil, f, 'g', -1, 64), ',')
	}
	buf := make([]byte, 0, 32)
	b.Run("append/kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf, _ = appendJSONFloat(buf[:0], fs[i%len(fs)])
		}
	})
	b.Run("append/strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = strconv.AppendFloat(buf[:0], fs[i%len(fs)], 'g', -1, 64)
		}
	})
	b.Run("parse/kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := jscan{b: text[i%len(text)]}
			f, err := s.float()
			if err != nil {
				b.Fatal(err)
			}
			parsedSink = f
		}
	})
	b.Run("parse/strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := jscan{b: text[i%len(text)]}
			f, err := refFloat(&s)
			if err != nil {
				b.Fatal(err)
			}
			parsedSink = f
		}
	})
}
