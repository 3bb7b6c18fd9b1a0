// Package hotalloc exercises the hotalloc analyzer: no allocation site may
// be reachable from a //vet:hotpath root, through any chain of calls. The
// classifier keeps the sanctioned idioms silent — pooled appends into
// caller-owned storage, stack array values — while everything that can
// reach the allocator on a hot chain is a finding carrying the root-to-site
// path.
package hotalloc

type buf struct {
	out []int
}

var sink any

// tick is the declared hot root; the fixture's reachable world hangs off it.
//
//vet:hotpath
func tick(b *buf, n int, m map[int]int, s1, s2 string, raw []byte) {
	var local [4]int // stack array value: clean
	local[0] = n
	b.out = append(b.out, local[0]) // pooled append into the receiver: clean

	grown := freshAppend(n)
	dynamic(b, n+grown)
	sink = n // want `int boxed into interface \(allocates\)`
	mapWrite(m, n)
	_ = concat(s1, s2)
	_ = stringify(raw)
	spawn(b)
	varargs(n)
	closures(n)

	//lint:allow hotalloc logging fallback is off the steady state; reviewed edge cut
	cold(b)
}

// dynamic is one call deep: its non-constant make is a finding with the
// two-link chain.
func dynamic(b *buf, n int) {
	scratch := make([]int, n) // want `allocation on hot path \(tick -> dynamic\): make with non-constant size allocates`
	for i := range scratch {
		scratch[i] = i
	}
	deeper(b)
}

// deeper is two calls deep: the chain in the diagnostic grows with it.
func deeper(b *buf) []int {
	escapee := make([]int, 4) // want `allocation on hot path \(tick -> dynamic -> deeper\): escaping make \(constant size but leaks the frame\)`
	return escapee
}

// freshAppend grows a slice this frame owns no backing for.
func freshAppend(n int) int {
	var local []int
	local = append(local, n) // want `append to non-pooled slice may grow the backing array`
	return len(local)
}

func mapWrite(m map[int]int, n int) {
	m[n] = n // want `map assignment may allocate \(bucket growth\)`
}

func concat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

func stringify(raw []byte) string {
	return string(raw) // want `\[\]byte/\[\]rune to string conversion allocates`
}

func spawn(b *buf) {
	go drain(b) // want `go statement allocates a goroutine`
}

func drain(b *buf) { b.out = b.out[:0] }

func report(vs ...any) int { return len(vs) }

func varargs(n int) {
	_ = report(n, n+1) // want `variadic call materializes its argument slice` `int boxed into interface` `int boxed into interface`
}

func closures(n int) func() int {
	static := func() int { return 1 } // captures nothing: clean
	_ = static()
	return func() int { return n } // want `function literal captures n \(closure allocation\)`
}

// cold allocates freely, but tick reaches it only through an allow-cut call
// edge: nothing in here is reported.
func cold(b *buf) {
	b.out = append([]int{}, b.out...)
	sink = make([]byte, len(b.out))
}

// offPath allocates and nothing hot reaches it: silent.
func offPath(n int) []int {
	return make([]int, n)
}

// suppressed shows the site-level escape hatch on a hot chain.
//
//vet:hotpath
func suppressed(n int) []int {
	//lint:allow hotalloc warm-up path runs once per churn epoch, not per tick
	return make([]int, n)
}
