package tournament

import (
	"fmt"

	"gossipq/internal/sim"
)

// MedianRule runs the plain median dynamic of Doerr et al. [DGM+11] — every
// iteration, every node replaces its value with the median of three
// uniformly sampled values — for the given number of iterations (3 pull
// rounds each), returning each node's final value.
//
// This is 3-TOURNAMENT without a stopping schedule: run for Θ(log n)
// iterations it converges to a ±O(√(log n / n))-approximate median (far
// tighter than any fixed ε), which is the related-work baseline the paper
// contrasts with its O(log log n)-round ε-approximation. The E13 experiment
// maps the accuracy-versus-rounds frontier of the two.
func MedianRule(e *sim.Engine, values []int64, iterations int, opt Options) []int64 {
	n := e.N()
	if len(values) != n {
		panic(fmt.Sprintf("tournament: %d values for %d nodes", len(values), n))
	}
	if iterations <= 0 {
		iterations = sim.CeilLog2(n)
	}
	s := NewScratch(e)
	s.load(values)
	for i := 0; i < iterations; i++ {
		s.iterate(3, s.tournament3)
		if opt.OnIteration != nil {
			opt.OnIteration(2, i, s.cur)
		}
	}
	return s.cur
}
