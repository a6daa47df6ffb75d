package dataset

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/rskyline"
	"repro/internal/rtree"
)

func sample(n int, seed int64) []Item {
	return datagen.Generate(datagen.Uniform, n, 2, seed)
}

func TestNewValidatesDims(t *testing.T) {
	items := []Item{{ID: 0, Point: geom.NewPoint(1, 2)}, {ID: 1, Point: geom.NewPoint(1, 2, 3)}}
	if _, err := New("bad", 2, items); err == nil {
		t.Fatal("mixed dimensionality must be rejected")
	}
	if _, err := New("ok", 2, items[:1]); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d, err := New("rt", 2, sample(100, 3))
	if err != nil {
		t.Fatal(err)
	}
	d.Columns = []string{"price", "mileage"}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() || back.Dims != 2 {
		t.Fatalf("round trip: %d items %d dims", back.Len(), back.Dims)
	}
	if len(back.Columns) != 2 || back.Columns[0] != "price" {
		t.Fatalf("columns lost: %v", back.Columns)
	}
	for i := range d.Items {
		if back.Items[i].ID != d.Items[i].ID || !back.Items[i].Point.Equal(d.Items[i].Point) {
			t.Fatalf("item %d mismatch", i)
		}
	}
}

func TestCSVNoHeader(t *testing.T) {
	in := "0,1.5,2.5\n1,3,4\n"
	d, err := ReadCSV("nh", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || len(d.Columns) != 0 {
		t.Fatalf("parsed %d items, columns %v", d.Len(), d.Columns)
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []struct {
		in   string
		want string // substring the error must carry
	}{
		{"0\n", "line 1"},                           // too few fields
		{"0,abc\n", "line 1"},                       // bad float
		{"x,1,2\ny,z,2\n", "line 2"},                // header then bad id
		{"0,1,2\n1,1\n", "line 2"},                  // inconsistent dims
		{"id,a,b\n0,1,2\n1,3,4,5\n", "want 2"},      // dims disagree with header
		{"0,NaN,2\n", "non-finite"},                 // NaN coordinate
		{"0,1,+Inf\n", "non-finite"},                // infinite coordinate
		{"0,1,-Inf\n", "non-finite"},                // negative infinity
		{"0,1,2\n1,3,4\n0,5,6\n", "duplicate id 0"}, // duplicate ID
		{"0,1,2\n1,3,4\n0,5,6\n", "line 1"},         // ...reported with first use
		{"-3,1,2\n", "negative id"},                 // sentinel-colliding ID
		{"id,a,b\n5,1,2\nid2,a2,b2\n", "line 3"},    // second header mid-file
	}
	for i, tc := range cases {
		_, err := ReadCSV("bad", strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("case %d: expected error for %q", i, tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: error %q does not mention %q", i, err, tc.want)
		}
	}
}

func TestCSVHeaderLineNumbers(t *testing.T) {
	// With a header the first bad data row is physical line 3.
	in := "id,a,b\n0,1,2\n1,oops,4\n"
	_, err := ReadCSV("bad", strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("want line-3 error, got %v", err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	d, _ := New("f", 2, sample(50, 5))
	if err := d.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV("f", path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 50 {
		t.Fatalf("loaded %d items", back.Len())
	}
}

func TestBounds(t *testing.T) {
	items := []Item{
		{ID: 0, Point: geom.NewPoint(0, 10)},
		{ID: 1, Point: geom.NewPoint(4, 20)},
		{ID: 2, Point: geom.NewPoint(2, 30)},
	}
	d, _ := New("s", 2, items)
	b, ok := d.Bounds()
	if !ok || !b.Lo.Equal(geom.NewPoint(0, 10)) || !b.Hi.Equal(geom.NewPoint(4, 30)) {
		t.Fatalf("Bounds = %v", b)
	}
	empty, _ := New("e", 2, nil)
	if _, ok := empty.Bounds(); ok {
		t.Fatal("empty dataset has no bounds")
	}
}

func TestFindQueries(t *testing.T) {
	items := sample(3000, 7)
	db := rskyline.NewDB(2, items, rtree.Config{})
	rng := rand.New(rand.NewSource(8))
	targets := []int{1, 2, 3, 4, 5}
	cases := FindQueries(db, items, targets, 3000, rng)
	if len(cases) == 0 {
		t.Fatal("no query cases found")
	}
	seen := map[int]bool{}
	for _, qc := range cases {
		size := len(qc.RSL)
		if seen[size] {
			t.Fatalf("duplicate RSL size %d", size)
		}
		seen[size] = true
		wantIn := false
		for _, tgt := range targets {
			if size == tgt {
				wantIn = true
			}
		}
		if !wantIn {
			t.Fatalf("unexpected RSL size %d", size)
		}
		// The recorded RSL must be the actual reverse skyline.
		actual, err := db.ReverseSkylineFilteredCtx(context.Background(), items, qc.Q)
		if err != nil {
			t.Fatal(err)
		}
		if len(actual) != size {
			t.Fatalf("stale RSL: recorded %d, actual %d", size, len(actual))
		}
		// The why-not point must be outside the RSL.
		for _, c := range qc.RSL {
			if c.ID == qc.WhyNot.ID {
				t.Fatalf("why-not point %d is in the RSL", c.ID)
			}
		}
	}
	if len(seen) < 3 {
		t.Fatalf("found only %d distinct sizes, want ≥ 3", len(seen))
	}
	// Results are sorted by RSL size.
	for i := 1; i < len(cases); i++ {
		if len(cases[i-1].RSL) > len(cases[i].RSL) {
			t.Fatal("query cases not sorted by RSL size")
		}
	}
}
