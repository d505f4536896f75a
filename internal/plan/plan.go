// Package plan defines the query-plan representation shared by the
// optimizers, the cost estimator and the mediator executor. A plan is a
// straight-line sequence of assignments in exactly the notation of the
// paper's figures:
//
//	X11 := sq(c1, R1)         selection query at a source
//	X21 := sjq(c2, R1, X1)    semijoin query at a source
//	F3  := lq(R3)             load an entire source        (Section 4)
//	X31 := sq(c3, F3)         local selection on loaded data (Section 4)
//	X1  := X11 ∪ X12          mediator union
//	X2  := X2 ∩ X1            mediator intersection
//	D1  := X1 − X21           mediator difference          (Section 4)
//
// Variables are assignable (the paper reuses names like X2); the validator
// only requires definition before use.
package plan

import (
	"fmt"
	"strconv"
	"strings"

	"fusionq/internal/cond"
	"fusionq/internal/stats"
)

// Kind discriminates plan steps.
type Kind int

// Step kinds.
const (
	// KindSelect is X := sq(c_i, R_j), a selection query at a source.
	KindSelect Kind = iota
	// KindSemijoin is X := sjq(c_i, R_j, Y), a semijoin query at a source.
	KindSemijoin
	// KindBloomSemijoin is X := sjq(c_i, R_j, bloom(Y)): the source
	// receives a Bloom filter of Y instead of Y itself and the mediator
	// intersects the reply with Y (the Bloomjoin extension).
	KindBloomSemijoin
	// KindLoad is F := lq(R_j), loading an entire source.
	KindLoad
	// KindLocalSelect is X := sq(c_i, F), applying a condition locally to
	// previously loaded source contents.
	KindLocalSelect
	// KindUnion is X := Y1 ∪ ... ∪ Yk.
	KindUnion
	// KindIntersect is X := Y1 ∩ ... ∩ Yk.
	KindIntersect
	// KindDiff is X := Y − Z.
	KindDiff
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSelect:
		return "sq"
	case KindSemijoin:
		return "sjq"
	case KindBloomSemijoin:
		return "sjq-bloom"
	case KindLoad:
		return "lq"
	case KindLocalSelect:
		return "local-sq"
	case KindUnion:
		return "union"
	case KindIntersect:
		return "intersect"
	case KindDiff:
		return "diff"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Step is one assignment. Fields are used according to Kind:
//
//	KindSelect:      Out, Cond, Source
//	KindSemijoin:    Out, Cond, Source, In[0] = semijoin set
//	KindLoad:        Out, Source
//	KindLocalSelect: Out, Cond, In[0] = loaded-contents variable
//	KindUnion:       Out, In[...]
//	KindIntersect:   Out, In[...]
//	KindDiff:        Out, In[0] − In[1]
type Step struct {
	Kind   Kind
	Out    string
	Cond   int // index into Plan.Conds; -1 when unused
	Source int // index into Plan.Sources; -1 when unused
	In     []string
}

// IsSourceQuery reports whether the step is charged by the cost model
// (selection, semijoin or load query at a source). Local operations are
// free (Section 2.4).
func (s Step) IsSourceQuery() bool {
	return s.Kind == KindSelect || s.Kind == KindSemijoin || s.Kind == KindBloomSemijoin || s.Kind == KindLoad
}

// Plan is a straight-line fusion-query plan.
type Plan struct {
	// Conds are the query's conditions c_1..c_m (indices used by steps).
	Conds []cond.Cond
	// Sources are the source names R_1..R_n (indices used by steps).
	Sources []string
	// Steps execute in order.
	Steps []Step
	// Result is the variable holding the final answer.
	Result string
	// Class is a human-readable label of the plan class ("filter",
	// "semijoin", "semijoin-adaptive", "sja+", ...).
	Class string
	// Records is how the plan retrieves the answer entities' records.
	Records Records
	// Adaptive, when set, marks a plan whose rounds are decided at run time:
	// Steps are its estimate, and the executor picks each round from this
	// table against the measured size of the running set (E15).
	Adaptive *stats.CostTable

	// flow is where a memoized plan keeps its Flow (flow.go); nil for
	// any other.
	flow *flowSlot
}

// Records is how a plan retrieves the records of the answer's entities: not
// at all; by a fetch round to every source it did not load once the answer
// is known (the second phase of Section 1); or from its final round's
// selections and native semijoins, fetching only what they left uncovered
// (Section 6, "beyond two-phase").
type Records int

// The record schedules.
const (
	NoRecords Records = iota
	FetchRecords
	FinalRecords
)

// String names the schedule.
func (r Records) String() string { return [...]string{"none", "fetch", "final"}[r] }

// CondName renders condition i as c1, c2, ... matching the paper.
func CondName(i int) string {
	var b strings.Builder
	writeCondName(&b, i)
	return b.String()
}

// SourceName renders source j as R1, R2, ... matching the paper.
func SourceName(j int) string { return fmt.Sprintf("R%d", j+1) }

// Validate checks structural well-formedness: index ranges, variable
// definition before use, arities, and that the result variable is defined.
func (p *Plan) Validate() error {
	for k, s := range p.Steps {
		if s.Out == "" {
			return fmt.Errorf("plan: step %d has no output variable", k+1)
		}
		if s.Kind == KindSelect || s.Kind == KindSemijoin || s.Kind == KindBloomSemijoin || s.Kind == KindLocalSelect {
			if s.Cond < 0 || s.Cond >= len(p.Conds) {
				return fmt.Errorf("plan: step %d: condition index %d out of range", k+1, s.Cond)
			}
		}
		if s.Kind == KindSelect || s.Kind == KindSemijoin || s.Kind == KindBloomSemijoin || s.Kind == KindLoad {
			if s.Source < 0 || s.Source >= len(p.Sources) {
				return fmt.Errorf("plan: step %d: source index %d out of range", k+1, s.Source)
			}
		}
		switch s.Kind {
		case KindSelect, KindLoad:
			if len(s.In) != 0 {
				return fmt.Errorf("plan: step %d: %s takes no set inputs", k+1, s.Kind)
			}
		case KindSemijoin, KindBloomSemijoin, KindLocalSelect:
			if len(s.In) != 1 {
				return fmt.Errorf("plan: step %d: %s takes exactly one input", k+1, s.Kind)
			}
		case KindUnion, KindIntersect:
			if len(s.In) < 1 {
				return fmt.Errorf("plan: step %d: %s needs at least one input", k+1, s.Kind)
			}
		case KindDiff:
			if len(s.In) != 2 {
				return fmt.Errorf("plan: step %d: diff takes exactly two inputs", k+1)
			}
		default:
			return fmt.Errorf("plan: step %d: unknown kind %d", k+1, int(s.Kind))
		}
		for _, in := range s.In {
			if p.assigned(in, k) < 0 {
				return fmt.Errorf("plan: step %d: variable %q used before definition", k+1, in)
			}
		}
	}
	if p.Result == "" {
		return fmt.Errorf("plan: no result variable")
	}
	if p.assigned(p.Result, len(p.Steps)) < 0 {
		return fmt.Errorf("plan: result variable %q never defined", p.Result)
	}
	return nil
}

// assigned is the last step before step i that assigns name, or -1.
func (p *Plan) assigned(name string, i int) int {
	for v := i - 1; v >= 0; v-- {
		if p.Steps[v].Out == name {
			return v
		}
	}
	return -1
}

// NumSourceQueries counts the charged source queries in the plan.
func (p *Plan) NumSourceQueries() int {
	n := 0
	for _, s := range p.Steps {
		if s.IsSourceQuery() {
			n++
		}
	}
	return n
}

// FinalCond returns the condition of the plan's final round, the one its
// last condition-evaluating step evaluates; -1 when no step evaluates one.
func (p *Plan) FinalCond() int {
	for k := len(p.Steps) - 1; k >= 0; k-- {
		if c := p.Steps[k].Cond; c >= 0 {
			return c
		}
	}
	return -1
}

// StepString renders one step in the paper's notation.
func (p *Plan) StepString(s Step) string {
	var b strings.Builder
	p.writeStep(&b, s)
	return b.String()
}

// writeStep writes StepString(s) to b: the one renderer of a step.
func (p *Plan) writeStep(b *strings.Builder, s Step) {
	b.WriteString(s.Out)
	b.WriteString(" := ")
	switch s.Kind {
	case KindSelect, KindSemijoin, KindBloomSemijoin:
		if s.Kind == KindSelect {
			b.WriteString("sq(")
		} else {
			b.WriteString("sjq(")
		}
		writeCondName(b, s.Cond)
		b.WriteString(", ")
		b.WriteString(p.Sources[s.Source])
		switch s.Kind {
		case KindSemijoin:
			b.WriteString(", ")
			b.WriteString(s.In[0])
		case KindBloomSemijoin:
			b.WriteString(", bloom(")
			b.WriteString(s.In[0])
			b.WriteByte(')')
		}
		b.WriteByte(')')
	case KindLoad:
		b.WriteString("lq(")
		b.WriteString(p.Sources[s.Source])
		b.WriteByte(')')
	case KindLocalSelect:
		b.WriteString("sq(")
		writeCondName(b, s.Cond)
		b.WriteString(", ")
		b.WriteString(s.In[0])
		b.WriteByte(')')
	case KindUnion, KindIntersect:
		op := " ∪ "
		if s.Kind == KindIntersect {
			op = " ∩ "
		}
		for k, in := range s.In {
			if k > 0 {
				b.WriteString(op)
			}
			b.WriteString(in)
		}
	case KindDiff:
		b.WriteString(s.In[0])
		b.WriteString(" − ")
		b.WriteString(s.In[1])
	default:
		b.WriteByte('?')
		writeInt(b, int(s.Kind))
	}
}

// textBound is at least the length of StepString(s): what a buffer of the
// plan's step texts makes room for.
func (p *Plan) textBound(s Step) int {
	n := len(s.Out) + len(" := sjq(c, , bloom())") + 20
	if s.Source >= 0 && s.Source < len(p.Sources) {
		n += len(p.Sources[s.Source])
	}
	for _, in := range s.In {
		n += len(in) + len(" ∪ ")
	}
	return n
}

// writeCondName writes CondName(i) to b.
func writeCondName(b *strings.Builder, i int) {
	b.WriteByte('c')
	writeInt(b, i+1)
}

// writeInt writes i in decimal to b.
func writeInt(b *strings.Builder, i int) {
	var buf [20]byte
	b.Write(strconv.AppendInt(buf[:0], int64(i), 10))
}

// String renders the plan as a numbered listing in the style of Figure 2.
func (p *Plan) String() string {
	var b strings.Builder
	for k, s := range p.Steps {
		fmt.Fprintf(&b, "%2d) %s\n", k+1, p.StepString(s))
	}
	return b.String()
}
