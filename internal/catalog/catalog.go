// Package catalog loads mediator configurations: a JSON file naming the
// autonomous sources (local CSV relations or remote wire endpoints), their
// capability tiers and their link characteristics. The command-line tools
// use it to assemble a mediator in one flag instead of many.
//
// Example:
//
//	{
//	  "merge": "L",
//	  "sources": [
//	    {"name": "dmv_ca", "csv": "ca.csv", "caps": "native", "bloom": true,
//	     "link": {"latencyMs": 40, "bytesPerSec": 131072, "overheadMs": 20, "maxConns": 4}},
//	    {"name": "dmv_nv", "remote": "10.0.0.2:7070"}
//	  ]
//	}
//
// A source may instead declare itself a replica of a logical source with
// "replicaOf": every spec naming the same logical source becomes one
// physical endpoint behind it, and the mediator plans against the logical
// name only — replica selection, failover and hedging happen in the
// source fabric:
//
//	{"name": "dmv_ca_a", "csv": "ca.csv", "replicaOf": "dmv_ca"},
//	{"name": "dmv_ca_b", "remote": "10.0.0.3:7070", "replicaOf": "dmv_ca"}
package catalog

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fusionq/internal/core"
	"fusionq/internal/csvio"
	"fusionq/internal/fabric"
	"fusionq/internal/netsim"
	"fusionq/internal/relation"
	"fusionq/internal/source"
	"fusionq/internal/wire"
)

// LinkSpec configures the simulated link to one source.
type LinkSpec struct {
	LatencyMs   float64 `json:"latencyMs"`
	BytesPerSec float64 `json:"bytesPerSec"`
	OverheadMs  float64 `json:"overheadMs"`
	JitterFrac  float64 `json:"jitterFrac"`
	// MaxConns is how many exchanges the source serves at once: what bounds
	// parallel execution against it and divides an emulated semijoin's
	// bindings in the response-time estimate. Zero means one.
	MaxConns int `json:"maxConns,omitempty"`
}

// Link converts the spec to a netsim.Link; a spec that states no cost (nil,
// zero, or maxConns alone) has DefaultLink's.
func (l *LinkSpec) Link() netsim.Link {
	if l == nil {
		return netsim.DefaultLink()
	}
	link := netsim.DefaultLink()
	if *l != (LinkSpec{MaxConns: l.MaxConns}) { // some cost is stated
		link = netsim.Link{
			Latency:         time.Duration(l.LatencyMs * float64(time.Millisecond)),
			BytesPerSec:     l.BytesPerSec,
			RequestOverhead: time.Duration(l.OverheadMs * float64(time.Millisecond)),
			JitterFrac:      l.JitterFrac,
		}
	}
	link.MaxConns = l.MaxConns
	return link
}

// SourceSpec describes one source. Exactly one of CSV or Remote is set.
type SourceSpec struct {
	Name   string    `json:"name"`
	CSV    string    `json:"csv,omitempty"`
	Remote string    `json:"remote,omitempty"`
	Caps   string    `json:"caps,omitempty"` // native | bindings | none
	Bloom  bool      `json:"bloom,omitempty"`
	Link   *LinkSpec `json:"link,omitempty"`
	// ReplicaOf names the logical source this spec is one physical replica
	// of. All specs sharing a ReplicaOf value are registered as one
	// replicated source under that logical name.
	ReplicaOf string `json:"replicaOf,omitempty"`
}

// Catalog is a parsed configuration.
type Catalog struct {
	// Merge names the merge attribute for CSV sources; empty means the
	// first column.
	Merge   string       `json:"merge,omitempty"`
	Sources []SourceSpec `json:"sources"`
	// dir is the catalog file's directory; relative CSV paths resolve
	// against it.
	dir string
}

// Load reads and validates a catalog file.
func Load(path string) (*Catalog, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	cat, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("catalog: %s: %w", path, err)
	}
	cat.dir = filepath.Dir(path)
	return cat, nil
}

// Parse validates catalog JSON.
func Parse(data []byte) (*Catalog, error) {
	var cat Catalog
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cat); err != nil {
		return nil, err
	}
	if err := cat.validate(); err != nil {
		return nil, err
	}
	return &cat, nil
}

// validate checks the specs, whether they were read from a file or made in
// memory (Build calls it too), and names each nameless CSV source after its
// file.
func (c *Catalog) validate() error {
	if len(c.Sources) == 0 {
		return fmt.Errorf("no sources")
	}
	seen := map[string]bool{}
	groups := map[string]bool{}
	for i, s := range c.Sources {
		if (s.CSV == "") == (s.Remote == "") {
			return fmt.Errorf("source %d: exactly one of csv or remote must be set", i)
		}
		if s.CSV != "" && s.Name == "" {
			c.Sources[i].Name = strings.TrimSuffix(filepath.Base(s.CSV), filepath.Ext(s.CSV))
		}
		name := c.Sources[i].Name
		if name != "" {
			if seen[name] {
				return fmt.Errorf("duplicate source name %q", name)
			}
			seen[name] = true
		}
		if _, err := source.ParseTier(s.Caps); err != nil {
			return fmt.Errorf("source %d: %w", i, err)
		}
		if s.ReplicaOf != "" {
			if c.Sources[i].Name == "" {
				return fmt.Errorf("source %d: a replica of %q needs its own name", i, s.ReplicaOf)
			}
			groups[s.ReplicaOf] = true
		}
	}
	for g := range groups {
		if seen[g] {
			return fmt.Errorf("logical source %q collides with a replica or source name", g)
		}
	}
	return nil
}

// Build assembles a mediator from the catalog, which may have been loaded
// from a file or made in memory: CSV sources are loaded into row stores,
// remote sources dialed under ctx, every source registered with its
// link-derived cost profile. A remote replica that cannot be dialed is
// skipped — its group only needs one live member, and the fabric routes
// around the rest — but a plain source failing, or a replica group with no
// reachable member, fails the build. The returned closer releases remote
// connections.
func (c *Catalog) Build(ctx context.Context) (*core.Mediator, func(), error) {
	if err := c.validate(); err != nil {
		return nil, nil, fmt.Errorf("catalog: %w", err)
	}
	var (
		m       *core.Mediator
		schema  *relation.Schema
		closers []func()
		built   []source.Source
	)
	closeAll := func() {
		for _, f := range closers {
			f()
		}
	}
	network := netsim.NewNetwork(1)
	for _, spec := range c.Sources {
		var src source.Source
		switch {
		case spec.CSV != "":
			path := spec.CSV
			if !filepath.IsAbs(path) && c.dir != "" {
				path = filepath.Join(c.dir, path)
			}
			rel, err := csvio.Load(path, c.Merge)
			if err != nil {
				closeAll()
				return nil, nil, err
			}
			caps, _ := source.ParseTier(spec.Caps) // validate checked it
			caps.BloomSemijoin = spec.Bloom
			src = source.NewWrapper(spec.Name, source.NewRowBackend(rel), caps)
		default:
			cli, err := wire.DialContext(ctx, spec.Remote)
			if err != nil {
				if spec.ReplicaOf != "" && ctx.Err() == nil {
					// A dead replica must not block assembly: its group only
					// needs one live member, and the fabric routes around the
					// rest. Registration below fails if none survived.
					built = append(built, nil)
					continue
				}
				closeAll()
				return nil, nil, err
			}
			closers = append(closers, func() { _ = cli.Close() })
			src = cli
		}
		if schema == nil {
			schema = src.Schema()
			m = core.New(schema)
			m.SetNetwork(network)
		} else if !schema.Compatible(src.Schema()) {
			closeAll()
			return nil, nil, fmt.Errorf("catalog: source %s schema %s incompatible with %s",
				src.Name(), src.Schema(), schema)
		}
		built = append(built, src)
	}
	// Register sources in catalog order: plain sources directly, replica
	// groups as one fabric-backed logical source at their first member's
	// position.
	registered := map[string]bool{}
	for i, spec := range c.Sources {
		if spec.ReplicaOf == "" {
			if err := m.AddSourceLink(built[i], spec.Link.Link()); err != nil {
				closeAll()
				return nil, nil, err
			}
			continue
		}
		if registered[spec.ReplicaOf] {
			continue
		}
		registered[spec.ReplicaOf] = true
		var replicas []core.ReplicaSpec
		for j, other := range c.Sources {
			if other.ReplicaOf == spec.ReplicaOf && built[j] != nil {
				replicas = append(replicas, core.ReplicaSpec{Source: built[j], Link: other.Link.Link()})
			}
		}
		if len(replicas) == 0 {
			closeAll()
			return nil, nil, fmt.Errorf("catalog: logical source %q: no replica reachable", spec.ReplicaOf)
		}
		if _, err := m.AddReplicatedSource(spec.ReplicaOf, replicas, fabric.Options{}); err != nil {
			closeAll()
			return nil, nil, err
		}
	}
	return m, closeAll, nil
}
