package region

import (
	"testing"

	"repro/internal/geom"
)

// FuzzStaircaseCorners checks the anti-DDR corner constructions against the
// grid reference on small integer inputs, where ties, duplicates, dominated
// points and points on the universe bound are common. The first byte picks
// d ∈ {2, 3, 4}; the next d bytes give the universe bound u (each 4..7); the
// rest give up to 8 points, each coordinate reduced into [0, u_i]. The
// local-upper-bound construction must equal the grid's corners in order at
// every d, and the Fig. 10 staircase must give the same set at d = 2.
func FuzzStaircaseCorners(f *testing.F) {
	f.Add([]byte{0, 3, 3, 1, 5, 4, 2})                                        // d=2, two points
	f.Add([]byte{1, 2, 2, 2, 1, 6, 6, 6, 1, 6, 6, 6, 1, 3, 3, 3})             // d=3, points on u's bound
	f.Add([]byte{1, 0, 0, 0, 4, 4, 4, 4, 4, 4, 1, 2, 3})                      // d=3, duplicate and on u
	f.Add([]byte{2, 3, 3, 3, 3, 1, 2, 3, 4, 4, 3, 2, 1, 0, 7, 7, 7, 7, 0, 0}) // d=4, crossing points
	f.Add([]byte{1})                                                          // empty DSL
	f.Add([]byte{2, 1, 1, 1, 1, 0, 0, 0, 0, 5, 5, 5, 5, 6, 6})                // a point at the origin
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		d := 2 + int(data[0])%3
		data = data[1:]
		if len(data) < d {
			return
		}
		u := make(geom.Point, d)
		for i := range u {
			u[i] = float64(4 + data[i]%4)
		}
		data = data[d:]
		var tr []geom.Point
		for len(data) >= d && len(tr) < 8 {
			p := make(geom.Point, d)
			for i := range p {
				p[i] = float64(int(data[i]) % (int(u[i]) + 1))
			}
			tr = append(tr, p)
			data = data[d:]
		}
		got, err := localUpperBounds(tr, u, nil)
		if err != nil {
			t.Fatal(err)
		}
		grid := StaircaseCornersGrid(tr, u)
		if !sameCorners(got, grid) {
			t.Fatalf("local upper bounds %v, grid %v (u %v, points %v)", got, grid, u, tr)
		}
		if d == 2 {
			if fig10 := StaircaseCorners2D(tr, u); !sameCornerSet(fig10, grid) {
				t.Fatalf("Fig. 10 staircase %v, grid %v (u %v, points %v)", fig10, grid, u, tr)
			}
		}
	})
}
