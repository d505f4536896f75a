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
// bytes leave the run's account, and its buffer goes back to set's pool when
// no live version holds it and nobody outside the run can have seen it.
// Result.Vars is filled from the live versions when the run ends.
//
// A buffer is counted, not a version, because outputs alias inputs: a union
// with one non-empty input is that input, a difference with an empty side
// is its left input, and an intersection the run may write over one of its
// inputs (overwritable) continues that input's buffer. A buffer the run does
// not own outright is never given back: one a step did not make for the run
// alone (a records round's items, a loaded relation's). The versions the run
// keeps to its end — the result, and each round's running set, which a
// repair after a later failure seeds from (core's splitCompleted reads
// Vars) — never die inside the run, but their buffers stay the run's: when
// the run ends, the result's is the caller's (Result.AnswerOwned) and the
// others' are what Result.DropVars gives back.
type lifetimes struct {
	flow *plan.Flow
	vers []version
	tr   *byteTracker
}

// version is one step's output: its value and weight, whether the step made
// it (made) and its body made it for the run alone (owned), and the buffer
// it holds. A buffer is named by the version that made it, which also keeps
// its count.
type version struct {
	val   set.Set
	bytes int
	made  bool
	owned bool
	buf   int // the version that made the buffer; -1: empty, or of no account
	dead  bool
	refs  int  // for the version that made a buffer: live versions holding it
	free  bool // ... and whether the run may give it back
}

// begin readies the account for the steps f describes, which may have
// grown since the last call (an adaptive run's next round).
func (l *lifetimes) begin(f *plan.Flow) {
	l.flow = f
	n := len(f.Last)
	l.vers = slices.Grow(l.vers, n-len(l.vers))
	for len(l.vers) < n {
		l.vers = append(l.vers, version{buf: -1})
	}
}

// kept says the run holds version v to its end.
func (l *lifetimes) kept(v int) bool {
	return v == l.flow.Result || l.flow.RoundEnd[v]
}

// overwritable is the input of step idx, an intersection, that it may write
// over, or -1: one that this step reads last, whose buffer is the run's to
// give back, held by no other version and read by no other input.
func (l *lifetimes) overwritable(idx int) int {
	ins := l.flow.In[idx]
	for k, v := range ins {
		b := l.vers[v].buf
		if b < 0 || !l.vers[b].free || l.vers[b].refs != 1 || l.flow.Last[v] != idx || l.kept(v) {
			continue
		}
		shared := false
		for k2, v2 := range ins {
			shared = shared || k2 != k && l.vers[v2].buf == b
		}
		if !shared {
			return k
		}
	}
	return -1
}

// record enters step idx's output and counts its bytes. The steps of a
// batch record at once, each its own version; retire links them to their
// buffers.
func (l *lifetimes) record(idx int, out set.Set, owned bool) {
	bytes := out.Bytes()
	l.vers[idx] = version{val: out, bytes: bytes, made: true, owned: owned, buf: -1}
	l.tr.add(bytes)
}

// link gives version idx its buffer: an input's when the output is in it
// (none, when that input's is of no account), else its own when the body
// made it for the run alone.
func (l *lifetimes) link(idx int) {
	v := &l.vers[idx]
	for _, in := range l.flow.In[idx] {
		if sameBuffer(l.vers[in].val, v.val) {
			v.buf = l.vers[in].buf
			if v.buf >= 0 {
				l.vers[v.buf].refs++
			}
			return
		}
	}
	if v.owned && cap(v.val.Items()) > 0 {
		v.buf, v.free, v.refs = idx, true, 1
	}
}

// sameBuffer says a and b start in the same backing array.
func sameBuffer(a, b set.Set) bool {
	x, y := a.Items(), b.Items()
	return cap(x) > 0 && cap(y) > 0 && &x[:1][0] == &y[:1][0]
}

// retire closes the batch of steps [start, end), whose outputs are
// recorded: each is linked to its buffer, and every version read for the
// last time in the batch, or read by nobody, dies.
func (l *lifetimes) retire(start, end int) {
	f := l.flow
	for i := start; i < end; i++ {
		l.link(i)
	}
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
// goes back to the pool if it was the last version holding it and the run
// owns it. A kept version never dies.
func (l *lifetimes) die(v int) {
	ver := &l.vers[v]
	if ver.dead || l.kept(v) {
		return
	}
	ver.dead = true
	l.tr.release(ver.bytes)
	if b := ver.buf; b >= 0 {
		maker := &l.vers[b]
		if maker.refs--; maker.refs == 0 && maker.free {
			set.Release(maker.val)
		}
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

// owned sorts the buffers live versions hold when the run ends: whether the
// run owns v's outright, and every other buffer it owns, each once, for
// Result.DropVars.
func (l *lifetimes) owned(v int) (answer bool, rest []set.Set) {
	ab := l.vers[v].buf
	for b := range l.vers {
		if ver := &l.vers[b]; ver.buf == b && ver.free && ver.refs > 0 && b != ab {
			rest = append(rest, ver.val)
		}
	}
	return ab >= 0 && l.vers[ab].free, rest
}
