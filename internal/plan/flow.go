package plan

import (
	"strings"
	"sync/atomic"
)

// Flow is what running a plan needs to know of it beyond its steps: each
// step's text, which step's output each input reads, how long each output
// is read, and which steps form a batch or end a round. A memoized plan
// (Plan.Memoize) computes it once, so every run of a cached plan shares
// one.
//
// A step's output is a version of its variable: plans reassign names
// (X2 := X2 ∩ X1), and a reading step reads the version current at its
// position. Versions are named here by the index of the step that produced
// them. Plan.assigned, which Flow memoizes, is the one place a variable
// name becomes a step index: the schedulers, the estimators, DOT and
// core's repair all walk step indices from here.
//
// Two units of a plan are named here. A batch is a run of source queries
// that may be in flight together (BatchEnd): what the round scheduler
// settles and EstimateResponseTime prices. A round is one condition's
// steps (RoundEnd): what a run keeps the output of and a repair seeds
// from.
type Flow struct {
	// Texts[i] is StepString(Steps[i]), what traces and spans show.
	Texts []string
	// In[i][k] is the step whose output step i reads as its In[k].
	In [][]int
	// Last[i] is the last step that reads step i's output, or -1 when no
	// step does.
	Last []int
	// BatchEnd[i] is the end of the batch that starts at step i: the
	// longest run of source-query steps from i none of which reads the
	// output of another, so they may execute concurrently. It is i itself
	// when step i is no source query. In the canonical plans a batch is
	// one round's selections and semijoins; difference-pruned chains
	// serialize, because their diff steps are not source queries.
	BatchEnd []int
	// RoundEnd[i] says step i is the last of a round: its output is the
	// running set a repair of a run that failed in a later round seeds
	// from. A round starts at the first step of each condition, in the
	// order the steps stage them; steps before the first round (loads)
	// are in none.
	RoundEnd []bool
	// Result is the step whose output is the plan's result, or -1.
	Result int
}

// flowSlot is where a memoized plan keeps its Flow, with what the Flow was
// computed from: a copy of the plan shares the slot, and one that replaced
// the steps, sources or result does not match what is there.
type flowSlot struct{ memo atomic.Pointer[flowMemo] }

type flowMemo struct {
	steps   *Step
	n       int
	sources *string
	result  string
	flow    Flow
}

// Memoize gives the plan a slot to keep its Flow in, so that every run of
// it after the first shares one: the optimizer's plans have one, since a
// plan cache serves each of them many times. It must be called before the
// plan is shared. Once a memoized plan has run, its steps must not be
// edited in place.
func (p *Plan) Memoize() { p.flow = new(flowSlot) }

// Flow returns the plan's Flow: the one its slot keeps when it was
// memoized (Memoize) and its steps, sources and result are those the Flow
// was computed from, and otherwise a new one, which the slot then keeps. It
// is safe for concurrent use.
func (p *Plan) Flow() *Flow {
	if p.flow == nil {
		f := new(Flow)
		p.computeFlow(f)
		return f
	}
	if m := p.flow.memo.Load(); m != nil && m.matches(p) {
		return &m.flow
	}
	m := &flowMemo{n: len(p.Steps), result: p.Result}
	if len(p.Steps) > 0 {
		m.steps = &p.Steps[0]
	}
	if len(p.Sources) > 0 {
		m.sources = &p.Sources[0]
	}
	p.computeFlow(&m.flow)
	p.flow.memo.Store(m)
	return &m.flow
}

func (m *flowMemo) matches(p *Plan) bool {
	if m.n != len(p.Steps) || m.result != p.Result {
		return false
	}
	return (m.n == 0 || m.steps == &p.Steps[0]) && (len(p.Sources) == 0 || m.sources == &p.Sources[0])
}

// computeFlow fills f. A variable's current version is found by looking
// back from the reading step, which for a plan's few dozen steps costs less
// than a map would.
func (p *Plan) computeFlow(f *Flow) {
	n, ins := len(p.Steps), 0
	for _, s := range p.Steps {
		ins += len(s.In)
	}
	ints := make([]int, 2*n+ins)
	f.Texts = make([]string, n)
	f.In = make([][]int, n)
	f.Last, f.BatchEnd, ints = ints[:n:n], ints[n:2*n:2*n], ints[2*n:]
	f.RoundEnd = make([]bool, n)
	var small [32]bool
	staged := small[:]
	if len(p.Conds) > len(small) {
		staged = make([]bool, len(p.Conds))
	}
	// Every step's text is a piece of one buffer, made once: a string the
	// builder returned stays valid as it goes on writing.
	var texts strings.Builder
	bound := 0
	for _, s := range p.Steps {
		bound += p.textBound(s)
	}
	texts.Grow(bound)
	rounds := 0
	for i, s := range p.Steps {
		start := texts.Len()
		p.writeStep(&texts, s)
		f.Texts[i] = texts.String()[start:]
		f.In[i], ints = ints[:len(s.In):len(s.In)], ints[len(s.In):]
		for k, name := range s.In {
			v := p.assigned(name, i)
			if v >= 0 {
				f.Last[v] = i
			}
			f.In[i][k] = v
		}
		f.Last[i] = -1
		if s.Cond >= 0 && s.Cond < len(p.Conds) && !staged[s.Cond] {
			if rounds > 0 {
				f.RoundEnd[i-1] = true
			}
			staged[s.Cond], rounds = true, rounds+1
		}
	}
	for i := range p.Steps {
		end := i
		for end < n && p.Steps[end].IsSourceQuery() && !readsFrom(f.In[end], i) {
			end++
		}
		f.BatchEnd[i] = end
	}
	f.Result = p.assigned(p.Result, n)
}

// readsFrom says one of the versions ins names was made at or after step i.
func readsFrom(ins []int, i int) bool {
	for _, v := range ins {
		if v >= i {
			return true
		}
	}
	return false
}
