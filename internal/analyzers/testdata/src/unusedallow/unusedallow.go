// Package unusedallow exercises sfvet's stale-directive check: one directive
// that still suppresses a live diagnostic (the banned math/rand import) and
// one that suppresses nothing, which sfvet reports as a finding.
package unusedallow

import (
	"math/rand" //lint:allow detrand fixture exercises a directive that is genuinely used
)

// draw keeps the banned import referenced.
func draw() int { return rand.Int() }

// quiet once held a time.Now call; the directive outlived the code it
// excused and now suppresses nothing.
//
//lint:allow detrand stale: the wall-clock read this excused is gone
func quiet() int { return 3 }
