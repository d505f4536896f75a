// Fixture for the ctxfirst analyzer: flagged and clean shapes.
package fixture

import "context"

// Good: ctx first.
func Good(ctx context.Context, n int) {}

// GoodRoot: minting a root context is not this analyzer's business.
func GoodRoot() context.Context { return context.Background() }

func BadOrder(n int, ctx context.Context) {} // want `BadOrder: context.Context must be the first parameter`

func BadLiteral() {
	f := func(n int, ctx context.Context) {} // want `func literal: context.Context must be the first parameter`
	f(0, context.TODO())
}

type server struct{}

func (s *server) BadMethod(name string, ctx context.Context) {} // want `BadMethod: context.Context must be the first parameter`

//fqlint:ignore ctxfirst fixture demonstrates the suppression mechanism
func Suppressed(n int, ctx context.Context) {}
