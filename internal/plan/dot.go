package plan

import (
	"fmt"
	"strings"
)

// DOT renders the plan's dataflow as a Graphviz digraph: one node per step
// (source queries boxed and grouped per source, local set operations as
// ellipses), with edges following variable definitions to their uses.
// Variables may be reassigned (the paper reuses names like X2), so an edge
// comes from the step whose version the use reads (Flow.In).
func (p *Plan) DOT() string {
	var b strings.Builder
	b.WriteString("digraph plan {\n")
	b.WriteString("  rankdir=TB;\n")
	fmt.Fprintf(&b, "  label=%q;\n", "fusion query plan ("+p.Class+")")
	b.WriteString("  node [fontname=\"monospace\", fontsize=10];\n")

	f := p.Flow()
	for k, s := range p.Steps {
		shape, fill := "ellipse", "white"
		if s.IsSourceQuery() {
			shape, fill = "box", "lightblue"
		}
		if s.Kind == KindLocalSelect {
			fill = "lightyellow"
		}
		fmt.Fprintf(&b, "  s%d [label=%q, shape=%s, style=filled, fillcolor=%s];\n",
			k, f.Texts[k], shape, fill)
		for i, in := range s.In {
			if def := f.In[k][i]; def >= 0 {
				fmt.Fprintf(&b, "  s%d -> s%d [label=%q];\n", def, k, in)
			}
		}
	}
	if f.Result >= 0 {
		fmt.Fprintf(&b, "  result [label=%q, shape=doubleoctagon];\n", p.Result)
		fmt.Fprintf(&b, "  s%d -> result;\n", f.Result)
	}
	b.WriteString("}\n")
	return b.String()
}
