package optimizer

// SJ implements the SJ algorithm of Figure 3: it enumerates all m!
// orderings of the conditions (loop A) and, for each ordering and each
// condition after the first (loop B), decides between evaluating the
// condition with n selection queries or n semijoin queries by comparing the
// two total costs — an all-or-nothing choice, which is what characterizes
// the semijoin plan class. Complexity O((m!)·m·n).
func SJ(pr *Problem) (Result, error) {
	return searched(pr, "semijoin", selectAll, uniform)
}
