package bitstream

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, s string) Sequence {
	t.Helper()
	seq, err := ParseSequence(s)
	if err != nil {
		t.Fatalf("ParseSequence(%q): %v", s, err)
	}
	return seq
}

func TestStuffKnownVectors(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want string
	}{
		{"no run", "drdrdr", "drdrdr"},
		{"five dominant", "ddddd", "dddddr"},
		{"five recessive", "rrrrr", "rrrrrd"},
		{"run of ten dominant", "dddddddddd", "dddddrddddd" + "r"},
		{"stuff bit participates in next run", "dddddrrrr", "dddddrrrrr" + "d"},
		{"empty", "", ""},
		{"run broken at four", "ddddrdddd", "ddddrdddd"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Stuff(mustParse(t, tt.in))
			if got.Compact() != tt.want {
				t.Errorf("Stuff(%q) = %q, want %q", tt.in, got.Compact(), tt.want)
			}
		})
	}
}

func TestDestuffKnownVectors(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    string
		wantErr bool
	}{
		{"no stuff bits", "drdrdr", "drdrdr", false},
		{"one stuff bit", "dddddr", "ddddd", false},
		{"stuff error six dominant", "dddddd", "", true},
		{"stuff error six recessive", "rrrrrr", "", true},
		{"stuff bit then data", "dddddrdd", "ddddddd", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Destuff(mustParse(t, tt.in))
			if (err != nil) != tt.wantErr {
				t.Fatalf("Destuff(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			}
			if err == nil && got.Compact() != tt.want {
				t.Errorf("Destuff(%q) = %q, want %q", tt.in, got.Compact(), tt.want)
			}
			if tt.wantErr {
				var se *ErrStuff
				if !errors.As(err, &se) {
					t.Errorf("error %v is not *ErrStuff", err)
				}
			}
		})
	}
}

func randomSequence(r *rand.Rand, n int) Sequence {
	s := make(Sequence, n)
	for i := range s {
		if r.Intn(2) == 0 {
			s[i] = Dominant
		} else {
			s[i] = Recessive
		}
	}
	return s
}

// Property: destuff(stuff(x)) == x for any sequence.
func TestStuffDestuffRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		in := randomSequence(r, r.Intn(200))
		stuffed := Stuff(in)
		out, err := Destuff(stuffed)
		if err != nil {
			t.Fatalf("trial %d: Destuff(Stuff(x)) error: %v (x=%s)", trial, err, in.Compact())
		}
		if out.Compact() != in.Compact() {
			t.Fatalf("trial %d: round trip mismatch:\n in  %s\n out %s", trial, in.Compact(), out.Compact())
		}
	}
}

// Property: a stuffed sequence never contains six consecutive equal bits.
func TestStuffedNeverSixEqual(t *testing.T) {
	f := func(raw []byte) bool {
		bits := make([]uint8, len(raw))
		for i, b := range raw {
			bits[i] = b & 1
		}
		stuffed := Stuff(FromBits(bits))
		run, last := 0, Level(0)
		for _, l := range stuffed {
			if l == last {
				run++
			} else {
				last, run = l, 1
			}
			if run >= MaxEqualBits+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: stuffed length matches StuffedLength and never exceeds
// len(in) + len(in)/4 (worst case one stuff bit every four data bits after
// the first run).
func TestStuffedLength(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		in := randomSequence(r, r.Intn(300))
		stuffed := Stuff(in)
		if got := StuffedLength(in); got != len(stuffed) {
			t.Fatalf("StuffedLength = %d, want %d", got, len(stuffed))
		}
		if len(in) > 0 {
			limit := len(in) + 1 + (len(in)-1)/4
			if len(stuffed) > limit {
				t.Fatalf("stuffed length %d exceeds worst case %d for input %s",
					len(stuffed), limit, in.Compact())
			}
		}
	}
}

// Worst case stuffing: alternating runs of four after an initial run of
// five produce the maximum number of stuff bits.
func TestStuffWorstCase(t *testing.T) {
	in := mustParse(t, "rrrrrddddrrrrdddd")
	stuffed := Stuff(in)
	// After "rrrrr" a d-stuff is inserted; that stuff bit extends the
	// following dddd run to five, inserting an r-stuff, and so on.
	want := "rrrrr" + "d" + "dddd" + "r" + "rrrr" + "d" + "dddd" + "r"
	if stuffed.Compact() != want {
		t.Errorf("worst case stuffing = %q, want %q", stuffed.Compact(), want)
	}
}

func TestIncrementalStufferMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		in := randomSequence(r, r.Intn(150))
		var st Stuffer
		var incr Sequence
		for _, l := range in {
			incr = append(incr, l)
			if sb, ok := st.Push(l); ok {
				incr = append(incr, sb)
			}
		}
		if incr.Compact() != Stuff(in).Compact() {
			t.Fatalf("incremental stuffing mismatch for %s", in.Compact())
		}
	}
}

func TestIncrementalDestufferClassification(t *testing.T) {
	in := mustParse(t, "dddddr")
	var ds Destuffer
	kinds := make([]BitKind, 0, len(in))
	for _, l := range in {
		k, err := ds.Push(l)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, k)
	}
	want := []BitKind{DataBit, DataBit, DataBit, DataBit, DataBit, StuffBit}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("bit %d classified %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestDestufferNextIsStuff(t *testing.T) {
	var ds Destuffer
	for i := 0; i < MaxEqualBits; i++ {
		if ds.NextIsStuff() {
			t.Fatalf("NextIsStuff true after %d bits", i)
		}
		if _, err := ds.Push(Dominant); err != nil {
			t.Fatal(err)
		}
	}
	if !ds.NextIsStuff() {
		t.Error("NextIsStuff must be true after five equal bits")
	}
	if _, err := ds.Push(Recessive); err != nil {
		t.Fatal(err)
	}
	if ds.NextIsStuff() {
		t.Error("NextIsStuff must clear after the stuff bit")
	}
}

func TestDestufferReset(t *testing.T) {
	var ds Destuffer
	for i := 0; i < MaxEqualBits; i++ {
		if _, err := ds.Push(Dominant); err != nil {
			t.Fatal(err)
		}
	}
	ds.Reset()
	if ds.NextIsStuff() {
		t.Error("Reset must clear pending stuff expectation")
	}
	// Six dominants after reset should only error at the sixth.
	for i := 0; i < MaxEqualBits; i++ {
		if _, err := ds.Push(Dominant); err != nil {
			t.Fatalf("unexpected error at bit %d after reset: %v", i, err)
		}
	}
	if _, err := ds.Push(Dominant); err == nil {
		t.Error("sixth equal bit after reset must be a stuff error")
	}
}

// DestufferAfter of every prefix of a stuffed sequence is the state
// pushing that prefix bit by bit leaves, stuff bits and runs of five at
// the prefix's end included.
func TestDestufferAfterMatchesPushes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		in := randomSequence(r, r.Intn(150))
		if trial%4 == 0 {
			in = mustParse(t, "dddddddddd")
		}
		stuffed := Stuff(in)
		var ds Destuffer
		for i, l := range stuffed {
			if _, err := ds.Push(l); err != nil {
				t.Fatal(err)
			}
			if got := DestufferAfter(stuffed[:i+1]); got != ds {
				t.Fatalf("DestufferAfter(%s) = %+v, pushes give %+v", stuffed[:i+1].Compact(), got, ds)
			}
		}
	}
	if got := DestufferAfter(nil); got != (Destuffer{}) {
		t.Errorf("DestufferAfter(nil) = %+v, want the start-of-frame state", got)
	}
}
