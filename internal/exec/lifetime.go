package exec

import (
	"slices"

	"fusionq/internal/plan"
	"fusionq/internal/set"
)

// Lifetimes: the round scheduler gives back what it owns. Between batch
// barriers every step's output is a whole set, most of which dies long
// before the query ends: a source's answer once its round's union has read
// it, a union's output once the intersection after it has. Each output is a
// version of its variable (plan.Flow names them by the step that made them),
// and the scheduler keeps its values nowhere else: a step reads its inputs
// here, by the versions Flow says it reads. Flow also says which step reads
// each version last. Once that step's batch is over, the version dies: its
// bytes leave the run's account, and its buffer goes back to set's pool if
// the run owns it. Result.Vars is filled from the live versions when the
// run ends.
//
// Each buffer has one owner. No output is in an input's buffer: a source
// answers in a set of its caller's (source.Source), and set's operators put
// every result in a buffer of its own (package set). So a version owns its
// buffer exactly when its body made it for the run (owned: a source's
// answer, a local selection, the algebra's outputs; not a records round's
// items or a loaded relation's). The versions the run keeps to its end —
// the result, and each round's running set, which a repair after a later
// failure seeds from (core's splitCompleted reads Vars) — never die inside
// the run, but their buffers stay the run's: when the run ends, the
// result's is the caller's (Result.AnswerOwned) and the others' are what
// Result.DropVars gives back.
type lifetimes struct {
	flow *plan.Flow
	vers []version
	tr   *byteTracker
}

// version is one step's output: its value and weight, whether the step made
// it (made), and whether its body made its buffer for the run (owned).
type version struct {
	val   set.Set
	bytes int
	made  bool
	owned bool
	dead  bool
}

// begin readies the account for the steps f describes, which may have
// grown since the last call (an adaptive run's next round).
func (l *lifetimes) begin(f *plan.Flow) {
	l.flow = f
	l.vers = slices.Grow(l.vers, len(f.Last)-len(l.vers))[:len(f.Last)]
}

// kept says the run holds version v to its end.
func (l *lifetimes) kept(v int) bool {
	return v == l.flow.Result || l.flow.RoundEnd[v]
}

// record enters step idx's output and counts its bytes.
func (l *lifetimes) record(idx int, out set.Set, owned bool) {
	bytes := out.Bytes()
	l.vers[idx] = version{val: out, bytes: bytes, made: true, owned: owned}
	l.tr.add(bytes)
}

// retire closes the batch of steps [start, end), whose outputs are
// recorded: every version read for the last time in the batch, or read by
// nobody, dies.
func (l *lifetimes) retire(start, end int) {
	f := l.flow
	for i := start; i < end; i++ {
		for _, v := range f.In[i] {
			if f.Last[v] == i {
				l.die(v)
			}
		}
		if f.Last[i] < 0 {
			l.die(i)
		}
	}
}

// die ends version v: its bytes leave the run's account, and its buffer
// goes back to the pool if the run owns it. A kept version never dies.
func (l *lifetimes) die(v int) {
	ver := &l.vers[v]
	if ver.dead || l.kept(v) {
		return
	}
	ver.dead = true
	l.tr.release(ver.bytes)
	if ver.owned {
		set.Release(ver.val)
	}
}

// vars is what Result.Vars holds when the run ends: for each variable, the
// latest version a step made, unless it died.
func (l *lifetimes) vars(steps []plan.Step) map[string]set.Set {
	vars := map[string]set.Set{}
	for v := range l.vers {
		switch ver := &l.vers[v]; {
		case !ver.made:
		case ver.dead:
			delete(vars, steps[v].Out)
		default:
			vars[steps[v].Out] = ver.val
		}
	}
	return vars
}

// owned sorts the buffers of the versions live when the run ends: whether
// the run owns v's, and the other buffers it owns, for Result.DropVars.
func (l *lifetimes) owned(v int) (answer bool, rest []set.Set) {
	for w := range l.vers {
		if ver := &l.vers[w]; w != v && ver.owned && !ver.dead && !ver.val.IsEmpty() {
			rest = append(rest, ver.val)
		}
	}
	return l.vers[v].owned, rest
}
