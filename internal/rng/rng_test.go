package rng

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: streams diverged: %d != %d", i, got, want)
		}
	}
}

func TestSeedsProduceDistinctStreams(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 draws", same)
	}
}

// TestReferenceStream pins the exact output stream so that workloads are
// reproducible across releases: any change to the generator is a breaking
// change for recorded experiments and must be deliberate.
func TestReferenceStream(t *testing.T) {
	s := New(0)
	got := []uint64{s.Uint64(), s.Uint64(), s.Uint64()}
	s2 := New(0)
	for i, want := range got {
		if v := s2.Uint64(); v != want {
			t.Fatalf("draw %d not reproducible: %d != %d", i, v, want)
		}
	}
	// The first draw from seed 0 must be nonzero and stable within a process.
	if got[0] == 0 && got[1] == 0 {
		t.Fatal("suspicious all-zero prefix from seed 0")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d has %d draws, want about %.0f", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nBounds(t *testing.T) {
	s := New(3)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := s.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(9)
	for _, p := range []float64{0.1, 0.25, 0.5, 0.9, 1.0} {
		const n = 100000
		sum := 0
		for i := 0; i < n; i++ {
			k := s.Geometric(p)
			if k < 1 {
				t.Fatalf("Geometric(%v) returned %d < 1", p, k)
			}
			sum += k
		}
		mean := float64(sum) / n
		want := 1 / p
		if math.Abs(mean-want) > 0.05*want+0.02 {
			t.Errorf("Geometric(%v) mean = %v, want about %v", p, mean, want)
		}
	}
}

func TestGeometricPanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(%v) did not panic", p)
				}
			}()
			New(1).Geometric(p)
		}()
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(17)
	z := NewZipf(s, 100, 1.0)
	const n = 100000
	counts := make([]int, 100)
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must dominate rank 50 heavily at theta=1.
	if counts[0] < 10*counts[50] {
		t.Errorf("Zipf not skewed: rank0=%d rank50=%d", counts[0], counts[50])
	}
	// And every draw is in range (implicitly: no panic, counts sum to n).
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("draws out of range: %d != %d", total, n)
	}
}

func TestZipfUniformAtZeroTheta(t *testing.T) {
	s := New(19)
	z := NewZipf(s, 10, 0)
	const n = 100000
	counts := make([]int, 10)
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	want := float64(n) / 10
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("theta=0 bucket %d: %d, want about %.0f", i, c, want)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	a := New(23)
	fork := a.Fork()
	// The fork must not replay the parent's stream.
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == fork.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("fork collided with parent on %d draws", same)
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(31)
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	trues := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.25) {
			trues++
		}
	}
	if math.Abs(float64(trues)/n-0.25) > 0.01 {
		t.Errorf("Bool(0.25) rate = %v", float64(trues)/n)
	}
}

func TestMul64(t *testing.T) {
	f := func(x, y uint64) bool {
		hi, lo := mul64(x, y)
		// Verify against big-number arithmetic via pieces.
		wantLo := x * y
		// hi check: ((x*y) >> 64) computed by splitting.
		const mask = 1<<32 - 1
		x0, x1 := x&mask, x>>32
		y0, y1 := y&mask, y>>32
		mid := x1*y0 + (x0*y0)>>32
		wantHi := x1*y1 + mid>>32 + ((mid&mask)+x0*y1)>>32
		return lo == wantLo && hi == wantHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// plainRank is the unguided search: the first rank in [0, n) whose cdf
// entry is not below u.
func plainRank(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sequentialZipfCDF is NewZipf's table built in one sequential pass.
func sequentialZipfCDF(n int, theta float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1
	return cdf
}

var zipfThetas = []float64{0, 0.05, 0.5, 1.0, 1.1, 1.2}

// checkZipfBoundaries compares guided and plain search at every cut point
// k/2^g and at its neighbouring floats, where a guide off by one would
// show.
func checkZipfBoundaries(t *testing.T, z *Zipf) {
	t.Helper()
	if z.guide == nil {
		return
	}
	for k := 0; k < len(z.guide)-1; k++ {
		b := float64(k) / z.scale
		for _, u := range []float64{math.Nextafter(b, -1), b, math.Nextafter(b, 2)} {
			if u < 0 || u >= 1 {
				continue
			}
			if got, want := z.rank(u), plainRank(z.cdf, u); got != want {
				t.Fatalf("n=%d theta=%v u=%v (cut %d): guided rank %d, plain %d", z.n, z.theta, u, k, got, want)
			}
		}
	}
}

// FuzzZipfNext: the guided search returns the plain binary search's rank
// for every domain size, exponent and uniform draw.
func FuzzZipfNext(f *testing.F) {
	for _, n := range []uint32{1, 64, 65, 1000, 1 << 20} {
		for sel := range zipfThetas {
			f.Add(n, uint8(sel), uint64(0))
			f.Add(n, uint8(sel), ^uint64(0))
			f.Add(n, uint8(sel), uint64(0x9e3779b97f4a7c15))
		}
	}
	type key struct {
		n     int
		theta float64
	}
	// Building a table costs O(n); keep up to 4M cached entries (32 MiB).
	tables := map[key]*Zipf{}
	cached := 0
	f.Fuzz(func(t *testing.T, nRaw uint32, thetaSel uint8, bits uint64) {
		n := int(nRaw)
		if n < 1 || n > 1<<20 {
			n = int(nRaw%5000) + 1
		}
		k := key{n, zipfThetas[int(thetaSel)%len(zipfThetas)]}
		z, ok := tables[k]
		if !ok {
			z = NewZipf(New(1), k.n, k.theta)
			checkZipfBoundaries(t, z)
			if cached += k.n; cached > 1<<22 {
				clear(tables)
				cached = k.n
			}
			tables[k] = z
		}
		u := float64(bits>>11) / (1 << 53)
		if got, want := z.rank(u), plainRank(z.cdf, u); got != want {
			t.Fatalf("n=%d theta=%v u=%v: guided rank %d, plain %d", k.n, k.theta, u, got, want)
		}
	})
}

// TestZipfNextMatchesPlainSearch: Next consumes one Float64 per draw and
// returns the plain search's rank of it.
func TestZipfNextMatchesPlainSearch(t *testing.T) {
	for _, n := range []int{1, 64, 65, 768, 16384} {
		for _, theta := range zipfThetas {
			z := NewZipf(New(23), n, theta)
			checkZipfBoundaries(t, z)
			ref := New(23)
			for range 2000 {
				if got, want := z.Next(), plainRank(z.cdf, ref.Float64()); got != want {
					t.Fatalf("n=%d theta=%v: Next %d, plain %d", n, theta, got, want)
				}
			}
		}
	}
}

// TestNewZipfParallelTable: the table built in parallel chunks equals the
// sequential build bit for bit on both sides of the size threshold, with
// more chunks than this host may have CPUs. It calls the builder itself,
// since NewZipf may return a table another test built.
func TestNewZipfParallelTable(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, n := range []int{parallelZipfMinN - 1, parallelZipfMinN, parallelZipfMinN + 1, 1 << 20} {
		for _, theta := range zipfThetas {
			got := newZipfTable(n, theta).cdf
			want := sequentialZipfCDF(n, theta)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d theta=%v: cdf[%d] = %v, sequential %v", n, theta, i, got[i], want[i])
				}
			}
		}
	}
}

// unsharedZipf is a sampler over a table of its own, built as NewZipf
// builds one but never published.
func unsharedZipf(seed uint64, n int, theta float64) *Zipf {
	return &Zipf{src: New(seed), n: n, theta: theta, zipfTable: newZipfTable(n, theta)}
}

// checkSameDraws compares 2000 draws of z with those of want.
func checkSameDraws(t *testing.T, z, want *Zipf) {
	t.Helper()
	for i := range 2000 {
		if got, w := z.Next(), want.Next(); got != w {
			t.Errorf("n=%d theta=%v draw %d: %d, unshared %d", z.n, z.theta, i, got, w)
			return
		}
	}
}

// TestZipfSharesTable: a second sampler of one (n, theta) gets the table
// of the first while that one is alive, another key gets its own, and
// each sampler draws what an unshared build draws for its seed.
func TestZipfSharesTable(t *testing.T) {
	for _, n := range []int{65, parallelZipfMinN + 3} {
		const theta = 0.65
		a := NewZipf(New(3), n, theta)
		b := NewZipf(New(4), n, theta)
		if a.zipfTable != b.zipfTable {
			t.Errorf("n=%d: two live samplers of one key hold two tables", n)
		}
		if c := NewZipf(New(3), n, theta+0.01); c.zipfTable == a.zipfTable {
			t.Errorf("n=%d: theta %v and %v share a table", n, theta, theta+0.01)
		}
		if c := NewZipf(New(3), n+1, theta); c.zipfTable == a.zipfTable {
			t.Errorf("n=%d and n=%d share a table", n, n+1)
		}
		checkSameDraws(t, a, unsharedZipf(3, n, theta))
		checkSameDraws(t, b, unsharedZipf(4, n, theta))
	}
}

// TestZipfTableReleased: the memo holds no table alive; once the last
// sampler of a key is unreachable, a garbage collection frees its table
// and the key's entry goes.
func TestZipfTableReleased(t *testing.T) {
	k := zipfKey{777, math.Float64bits(0.77)}
	z := NewZipf(New(1), 777, 0.77)
	if _, ok := zipfTables.Load(k); !ok {
		t.Fatal("no memo entry while a sampler is alive")
	}
	runtime.KeepAlive(z)
	z = nil
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if _, ok := zipfTables.Load(k); !ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("memo entry still present 10s after its last sampler was dropped")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestZipfConcurrentBuilders: samplers of one key made at once on several
// goroutines settle on one table and draw what an unshared build draws.
// Run it under -race.
func TestZipfConcurrentBuilders(t *testing.T) {
	const n, theta, workers = parallelZipfMinN + 7, 0.35, 8
	zs := make([]*Zipf, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range zs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			zs[i] = NewZipf(New(uint64(i)), n, theta)
			checkSameDraws(t, zs[i], unsharedZipf(uint64(i), n, theta))
		}()
	}
	close(start)
	wg.Wait()
	for i, z := range zs {
		if z.zipfTable != zs[0].zipfTable {
			t.Errorf("sampler %d holds a different table from sampler 0", i)
		}
	}
}

// TestGeometricSamplerMatchesFormula: the sampler's draws equal the
// per-draw formula math.Ceil(math.Log(u)/math.Log(1-p)) bit for bit, and
// p == 1 consumes no random bits.
func TestGeometricSamplerMatchesFormula(t *testing.T) {
	for _, p := range []float64{1 / 1.6, 1 / 2.7, 1 / 3.1, 1.0 / 7, 1.0 / 16, 0.9, 1e-9} {
		g := NewGeometric(New(29), p)
		ref := New(29)
		for range 5000 {
			u := 1 - ref.Float64()
			want := max(int(math.Ceil(math.Log(u)/math.Log(1-p))), 1)
			if got := g.Next(); got != want {
				t.Fatalf("p=%v: draw %d, formula %d", p, got, want)
			}
		}
	}
	src := New(31)
	g := NewGeometric(src, 1)
	ref := New(31)
	for range 10 {
		if g.Next() != 1 {
			t.Fatal("Geometric(1) drew a value other than 1")
		}
	}
	if src.Uint64() != ref.Uint64() {
		t.Fatal("Geometric(1) consumed random bits")
	}
}

// BenchmarkNewZipf times a cold build of MemBound's data table: 1M lines
// at theta 0.05.
func BenchmarkNewZipf(b *testing.B) {
	for b.Loop() {
		newZipfTable(1<<20, 0.05)
	}
}

// BenchmarkZipfNext times draws from that table.
func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(New(1), 1<<20, 0.05)
	for b.Loop() {
		z.Next()
	}
}
