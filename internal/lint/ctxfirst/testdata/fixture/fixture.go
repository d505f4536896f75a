// Fixture for the ctxfirst analyzer: flagged and clean shapes.
package fixture

import "context"

// Good: ctx first.
func Good(ctx context.Context, n int) {}

func GoodContext(ctx context.Context, n int) {}

// A callee named *Context sanctions nothing: a context-free twin that mints
// the root for it is flagged like any other.
func Shim(n int) {
	GoodContext(context.Background(), n) // want `context.Background\(\) in library code`
}

func BadOrder(n int, ctx context.Context) {} // want `context.Context must be the first parameter`

func BadLiteral() {
	f := func(n int, ctx context.Context) {} // want `context.Context must be the first parameter`
	f(0, context.TODO())                     // want `context.TODO\(\) in library code`
}

func BadRoot() context.Context {
	ctx := context.Background() // want `context.Background\(\) in library code`
	return ctx
}

func BadWith() {
	// WithCancel does not end in "Context": minting a root here is drift.
	ctx, cancel := context.WithCancel(context.Background()) // want `context.Background\(\) in library code`
	defer cancel()
	_ = ctx
}

func Suppressed() {
	//fqlint:ignore ctxfirst fixture demonstrates the suppression mechanism
	ctx := context.Background()
	_ = ctx
}
