// Package wire implements a small JSON-over-TCP protocol that exposes a
// source wrapper to a remote mediator. It is the "real network" counterpart
// to the simulated links of internal/netsim: the examples and integration
// tests run mediators against sources served from other processes (or other
// goroutines) exactly as an Internet mediator would.
//
// The protocol is line-oriented: each request and each response is one JSON
// object on its own line. Operations mirror the wrapper interface of
// Section 2: sq, sjq, passed-binding selection, lq, fetch, plus a meta
// operation for schema, capability and statistics discovery.
//
// Six optional extensions ride protocol v1, each advertised in Meta and
// used only against a peer that advertises it, so a v1 peer that knows none
// of them interoperates: the query ID (qid), chunked answers (chunk, the
// Chunking flag), server span fragments (frag, Fragments), whole fusion
// queries (OpQuery, Queries), source summaries (OpStats, Stats) and item
// blocks (itemBlock, ItemBlock), which carry a frame's items after its line
// as length-prefixed bytes instead of as a JSON array.
package wire

import (
	"fmt"

	"fusionq/internal/bloom"
	"fusionq/internal/cond"
	"fusionq/internal/relation"
	"fusionq/internal/set"
	"fusionq/internal/source"
)

// ProtocolVersion is the wire protocol revision this build speaks. Servers
// report theirs in Meta; clients refuse servers that are newer than they
// understand.
const ProtocolVersion = 1

// Op codes of the protocol: the source operations under the names
// internal/source gives them, plus meta and query.
const (
	OpMeta       = "meta"
	OpSelect     = string(source.OpSelect)
	OpSemi       = string(source.OpSemi)
	OpBinding    = string(source.OpBinding)
	OpLoad       = string(source.OpLoad)
	OpFetch      = string(source.OpFetch)
	OpSelectRecs = string(source.OpSelectRecs)
	OpSemiRecs   = string(source.OpSemiRecs)
	OpSemiBloom  = string(source.OpSemiBloom)
	// OpStats asks a source server for the summary of its contents
	// (source.Summarize). A fifth v1-compatible optional extension in the
	// qid/chunk/frag/query mold: servers that predate it reject the op, and
	// clients discover support through Meta.Stats and load the relation to
	// summarize it themselves without.
	OpStats = string(source.OpStats)
	// OpQuery submits a whole fusion query to a mediator service (cmd/fqd)
	// rather than one source operation to a source server. A fourth
	// v1-compatible optional extension in the qid/chunk/frag mold: source
	// servers that predate it reject the op, and clients discover support
	// through Meta.Queries before relying on it.
	OpQuery = "query"
)

// Request is one client request.
type Request struct {
	Op string `json:"op"`
	// QueryID correlates this request with the mediator-side query that
	// issued it: the server tags its log lines with it and echoes it in the
	// response. Empty for requests outside a query (e.g. meta). Optional, so
	// v1 peers without it interoperate.
	QueryID string `json:"qid,omitempty"`
	// Cond is the condition in its textual form for sq/sjq/binding.
	Cond string `json:"cond,omitempty"`
	// Items carries the semijoin set (sjq) or the items to fetch (fetch).
	Items []string `json:"items,omitempty"`
	// blockHeader replaces Items on the line of a request whose items
	// follow it as a block; a client sends one only to a server that
	// advertises Meta.ItemBlock.
	blockHeader
	// Item is the single passed binding for the binding op.
	Item string `json:"item,omitempty"`
	// Filter is the encoded Bloom filter for the sjqb op.
	Filter string `json:"filter,omitempty"`
	// Chunk, when positive, asks the server to deliver an item-returning
	// response in chunks, each on its own line with More set on all but the
	// last: the first of this many items, each later one double the one
	// before up to 16 times the first (set.Schedule), so a long answer takes
	// few frames and its first items still come early. A client takes the
	// chunks as they come, whatever their sizes. Like qid, it is a v1-compatible
	// optional extension: servers that predate it ignore the field and
	// send one unchunked response (whose absent More reads as false), and
	// clients discover support through Meta.Chunking before relying on it.
	Chunk int `json:"chunk,omitempty"`
	// Frag asks the server to attach its span fragment — the server-side
	// timing breakdown — to the (final) response. A third v1-compatible
	// optional extension in the qid/chunk mold: old servers ignore the
	// field, old clients never set it, and clients discover support through
	// Meta.Fragments before relying on it.
	Frag bool `json:"frag,omitempty"`
	// ItemBlock asks the server to send the items of its response, and of
	// every chunk of it, as a block after the line (frame.go). The sixth
	// v1-compatible optional extension, in the qid/chunk/frag/query/stats
	// mold: old servers ignore the field and answer with JSON items, which
	// a block client reads as ever, and clients discover support through
	// Meta.ItemBlock before relying on it.
	ItemBlock bool `json:"itemBlock,omitempty"`
	// Tenant identifies the quota account a query op is charged to; the
	// service's admission controller buckets by it. Empty means the shared
	// anonymous tenant.
	Tenant string `json:"tenant,omitempty"`
	// Conds carries a query op's fusion conditions in textual form, one per
	// condition (the multi-condition counterpart of Cond).
	Conds []string `json:"conds,omitempty"`
	// Stream asks the service to execute a query op with the streaming
	// pipeline; combine with Chunk to receive answer items as they surface.
	Stream bool `json:"stream,omitempty"`
}

// Response is one server response.
type Response struct {
	Error string `json:"error,omitempty"`
	// QueryID echoes the request's query ID, confirming the correlation
	// header survived the round trip.
	QueryID string `json:"qid,omitempty"`
	// Items answers sq and sjq.
	Items []string `json:"items,omitempty"`
	// blockHeader replaces Items on the line of a response whose items
	// follow it as a block, the answer to a request that set ItemBlock.
	blockHeader
	// Encoded, when set, is EncodeItems(Items): the encoder writes its
	// block in place of encoding Items as one. Only a writer sets it.
	Encoded *EncodedItems `json:"-"`
	// Stream, when set, is the answer's items as a stream: the listener
	// writes each batch as a chunk (a chunked selection) and closes it. Only
	// a writer sets it.
	Stream set.Iter `json:"-"`
	// Match answers binding.
	Match bool `json:"match,omitempty"`
	// Tuples answers lq and fetch.
	Tuples []WireTuple `json:"tuples,omitempty"`
	// Meta answers meta.
	Meta *Meta `json:"meta,omitempty"`
	// Stats answers stats.
	Stats *relation.Summary `json:"stats,omitempty"`
	// More marks a chunked response with further chunks to follow; the
	// final chunk (and every unchunked response) leaves it false.
	More bool `json:"more,omitempty"`
	// Frag is the server's span fragment, attached to the final (or only)
	// response when the request set Frag and the server supports the
	// extension.
	Frag *Fragment `json:"frag,omitempty"`
	// Code is a machine-readable refusal class accompanying Error on a query
	// op — "shed:queue-full" | "shed:quota" | "shed:draining" when admission
	// control rejected the query. Empty on success and on plain errors.
	Code string `json:"code,omitempty"`
	// PlanCached / AnswerCached report, for a query op, whether the service
	// answered from its plan cache or whole-answer cache.
	PlanCached   bool `json:"planCached,omitempty"`
	AnswerCached bool `json:"answerCached,omitempty"`
	// answer is the set Items are when the handler owns it outright, a
	// source's materialized answer (source.Source): the listener gives its
	// buffer back (set.Release) once the response is written. Only
	// encodeReply sets it.
	answer set.Set
}

// Fragment is a server-side span fragment: the server's own accounting of
// one request — accept-to-dispatch queue wait, condition parse, source scan,
// chunk emission — in the server's clock. Durations are microseconds; the
// mediator grafts the fragment into its trace after normalizing the interval
// against the round-trip envelope (the clocks need not agree, only tick at
// the same rate). Byte counts are semantic payload bytes, computed exactly
// as the server's fq_wire_bytes_* counters, so the two reconcile.
type Fragment struct {
	Source string `json:"source"`
	Op     string `json:"op"`
	// QueueUS is time from request receipt to dispatch start; QueueDepth is
	// how many other requests this server had in dispatch at that moment.
	QueueUS    int64 `json:"queueUs"`
	QueueDepth int   `json:"queueDepth,omitempty"`
	// ParseUS covers condition/filter parsing, ScanUS the source operation
	// itself, ChunkUS chunk assembly and the emission of all but the final
	// chunk. TotalUS is receipt-to-final-chunk, so it bounds the sum.
	ParseUS int64 `json:"parseUs"`
	ScanUS  int64 `json:"scanUs"`
	ChunkUS int64 `json:"chunkUs"`
	TotalUS int64 `json:"totalUs"`
	// BytesIn counts condition/item/filter payload bytes in the request,
	// BytesOut item/tuple payload bytes in the response.
	BytesIn  int `json:"bytesIn"`
	BytesOut int `json:"bytesOut"`
}

// Meta describes the served source.
type Meta struct {
	Version        int       `json:"version"`
	Name           string    `json:"name"`
	Merge          string    `json:"merge"`
	Columns        []WireCol `json:"columns"`
	NativeSemijoin bool      `json:"nativeSemijoin"`
	PassedBindings bool      `json:"passedBindings"`
	BloomSemijoin  bool      `json:"bloomSemijoin"`
	Tuples         int       `json:"tuples"`
	Distinct       int       `json:"distinct"`
	Bytes          int       `json:"bytes"`
	// Chunking advertises support for the Request.Chunk extension.
	Chunking bool `json:"chunking,omitempty"`
	// Fragments advertises support for the Request.Frag extension.
	Fragments bool `json:"fragments,omitempty"`
	// Queries advertises support for the OpQuery extension: the peer is a
	// mediator service, not a single source.
	Queries bool `json:"queries,omitempty"`
	// Stats advertises support for the OpStats extension.
	Stats bool `json:"stats,omitempty"`
	// ItemBlock advertises support for the Request.ItemBlock extension:
	// the server reads a request's items as a block and writes them so to
	// a client that asks.
	ItemBlock bool `json:"itemBlock,omitempty"`
}

// The codec between the protocol and the exchange contract of
// internal/source, one pair per end: the client encodes a Call as a Request
// and decodes the Response into a Reply; the server decodes the Request into
// a Call and encodes the Reply as a Response. The fields a Call or a Reply
// leaves zero are omitted from the line.

// encodeCall is the request line of a source operation. A streamed call asks
// for chunks of its batch size. The line's items are the set's own slice,
// here and in encodeReply: the frame encoder only reads them.
func encodeCall(call source.Call) Request {
	req := Request{Op: string(call.Op), Items: call.Items.Items(), Item: call.Item, Chunk: call.Batch}
	if call.Cond != nil {
		req.Cond = call.Cond.String()
	}
	if call.Filter != nil {
		req.Filter = call.Filter.Encode()
	}
	return req
}

// decodeCall reads a source operation from a peer's request, which nothing
// vouches for: the condition and the filter an operation needs must be
// there and parse. An op that is none of source's fails here when it
// carries no condition, and in source.Do otherwise. A chunked selection is
// a streamed Call, whose stream the listener writes chunk by chunk. The
// request's items become the Call's, here and in decodeReply: the frame
// they were decoded from is the caller's to give.
func decodeCall(req Request) (source.Call, error) {
	call := source.Call{Op: source.Op(req.Op), Items: set.Adopt(req.Items), Item: req.Item, Batch: max(req.Chunk, 0)}
	var err error
	if call.Op != source.OpLoad && call.Op != source.OpFetch && call.Op != source.OpStats {
		call.Cond, err = cond.Parse(req.Cond)
	}
	if err == nil && call.Op == source.OpSemiBloom {
		call.Filter, err = bloom.Decode(req.Filter)
	}
	if err != nil {
		return source.Call{}, fmt.Errorf("wire: %s: %w", req.Op, err)
	}
	return call, nil
}

// encodeReply is the response to a source operation; a loaded relation
// travels as its rows, a streamed selection as its stream. Items are the
// answer's, which the server owns, so the listener releases it once written.
func encodeReply(reply source.Reply) Response {
	resp := Response{Items: reply.Items.Items(), Match: reply.Match, Stats: reply.Stats, Stream: reply.Stream, answer: reply.Items}
	tuples := reply.Tuples
	if reply.Rel != nil {
		tuples = reply.Rel.Rows()
	}
	if len(tuples) > 0 {
		resp.Tuples = make([]WireTuple, len(tuples))
		for i, t := range tuples {
			resp.Tuples[i] = EncodeTuple(t)
		}
	}
	return resp
}

// decodeReply reads the answer to an operation op from a peer's response;
// a load's rows are inserted into a relation of the given schema, and the
// answer to stats must carry a summary.
func decodeReply(op source.Op, resp Response, schema *relation.Schema) (source.Reply, error) {
	reply := source.Reply{Items: set.Adopt(resp.Items), Match: resp.Match, Stats: resp.Stats}
	if op == source.OpStats && resp.Stats == nil {
		return source.Reply{}, fmt.Errorf("wire: %s: the response carries no summary", op)
	}
	if op == source.OpLoad {
		reply.Rel = relation.NewRelation(schema)
	} else if len(resp.Tuples) > 0 {
		reply.Tuples = make([]relation.Tuple, 0, len(resp.Tuples))
	}
	for _, wt := range resp.Tuples {
		t, err := DecodeTuple(wt)
		if err != nil {
			return source.Reply{}, err
		}
		if reply.Rel == nil {
			reply.Tuples = append(reply.Tuples, t)
		} else if err := reply.Rel.Insert(t); err != nil {
			return source.Reply{}, err
		}
	}
	return reply, nil
}

// WireCol is a schema column on the wire.
type WireCol struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// WireValue is a tagged scalar on the wire.
type WireValue struct {
	Kind string `json:"k"`
	Raw  string `json:"v"`
}

// WireTuple is one row on the wire.
type WireTuple []WireValue

// encodeKind maps a relation.Kind to its wire tag.
func encodeKind(k relation.Kind) string { return k.String() }

// decodeKind maps a wire tag back to a relation.Kind.
func decodeKind(s string) (relation.Kind, error) {
	switch s {
	case "string":
		return relation.KindString, nil
	case "int":
		return relation.KindInt, nil
	case "float":
		return relation.KindFloat, nil
	case "bool":
		return relation.KindBool, nil
	default:
		return 0, fmt.Errorf("wire: unknown kind %q", s)
	}
}

// EncodeTuple converts a relation tuple to its wire form.
func EncodeTuple(t relation.Tuple) WireTuple {
	out := make(WireTuple, len(t))
	for i, v := range t {
		out[i] = WireValue{Kind: encodeKind(v.Kind()), Raw: v.Raw()}
	}
	return out
}

// DecodeTuple converts a wire tuple back to a relation tuple.
func DecodeTuple(wt WireTuple) (relation.Tuple, error) {
	out := make(relation.Tuple, len(wt))
	for i, wv := range wt {
		k, err := decodeKind(wv.Kind)
		if err != nil {
			return nil, err
		}
		switch k {
		case relation.KindString:
			out[i] = relation.String(wv.Raw)
		default:
			v, err := relation.ParseValue(wv.Raw)
			if err != nil {
				return nil, fmt.Errorf("wire: decoding %q: %w", wv.Raw, err)
			}
			if v.Kind() != k {
				return nil, fmt.Errorf("wire: value %q decoded as %s, want %s", wv.Raw, v.Kind(), k)
			}
			out[i] = v
		}
	}
	return out, nil
}

// EncodeSchema converts a schema to wire columns.
func EncodeSchema(s *relation.Schema) []WireCol {
	cols := s.Columns()
	out := make([]WireCol, len(cols))
	for i, c := range cols {
		out[i] = WireCol{Name: c.Name, Kind: encodeKind(c.Kind)}
	}
	return out
}

// DecodeSchema rebuilds a schema from wire columns and a merge attribute.
func DecodeSchema(merge string, cols []WireCol) (*relation.Schema, error) {
	out := make([]relation.Column, len(cols))
	for i, c := range cols {
		k, err := decodeKind(c.Kind)
		if err != nil {
			return nil, err
		}
		out[i] = relation.Column{Name: c.Name, Kind: k}
	}
	return relation.NewSchema(merge, out...)
}
