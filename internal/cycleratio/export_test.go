package cycleratio

// HowardConverges reports whether policy iteration converges on every
// strongly connected component of g without the Bellman-Ford fallback.
func HowardConverges(g *Graph) bool {
	s := NewSolver()
	s.decompose(g)
	for i := 0; i < s.nSCCs; i++ {
		if _, _, ok := s.howard(&s.sccs[i].g); !ok {
			return false
		}
	}
	return true
}
