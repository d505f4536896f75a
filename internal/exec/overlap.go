package exec

import "sync"

// Overlap runs f(0) … f(n-1), each in its own goroutine, and returns once
// all have: n independent source exchanges cost the mediator the slowest
// one's round trip, not their sum. The error is the lowest index's that
// failed — what calling them in order would have reported — so it does not
// depend on which finished first. Nothing is cancelled on a failure; a
// caller that wants that derives the context f closes over.
func Overlap(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
