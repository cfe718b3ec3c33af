// Durable-journal hooks in the dispatch and batch paths. A platform
// built with Options.Journal appends a record for every *keyed*
// invocation (begin at admit, end or chunk-completion at outcome) and
// for every admin reconfiguration, and replays the journal at
// construction: reconfig records re-apply through the
// ctlplane.Reconfigurer surface, completed-key records rebuild the
// dedup table. Unkeyed invocations journal nothing — with no
// idempotency key there is no identity to deduplicate against, and the
// unkeyed serving hot path stays journal-free.
//
// The dedup table itself is always on (even without a journal), so
// in-process retries of keyed work — the cluster manager re-running a
// chunk whose response was lost — are absorbed regardless of
// durability configuration.
package core

import (
	"dandelion/internal/ctlplane"
	"dandelion/internal/journal"
	"dandelion/internal/memctx"
)

// Duplicate-detection errors, re-exported for callers that don't
// import internal/journal (the frontend maps ErrDuplicate to 409).
var (
	ErrDuplicate = journal.ErrDuplicate
	ErrInFlight  = journal.ErrInFlight
)

// journalAppend appends one record, counting outcomes; a nil journal
// or an in-progress replay journals nothing.
func (p *Platform) journalAppend(rec journal.Record) {
	if p.jrnl == nil || p.jreplaying.Load() {
		return
	}
	if _, err := p.jrnl.Append(rec); err != nil {
		p.jAppendErrs.Add(1)
		return
	}
	p.jAppends.Add(1)
}

// journalReconfig records one admin reconfiguration. Callers pass the
// *effective* values (read back after clamping) so replay reproduces
// the state, not the request.
func (p *Platform) journalReconfig(op journal.Op, tenant string, a, b int64) {
	p.journalAppend(journal.Record{Kind: journal.KindReconfig, Op: op, Tenant: tenant, A: a, B: b})
}

// replayJournal rebuilds state from the journal at construction:
// reconfig records re-apply through the Reconfigurer surface (the
// jreplaying flag keeps them from re-journaling), completed invocation
// and chunk records seed the dedup table (digest only — outputs died
// with the previous process), and bare begin records (in flight at the
// crash) are left retryable.
func (p *Platform) replayJournal() error {
	p.jreplaying.Store(true)
	defer p.jreplaying.Store(false)
	return p.jrnl.Replay(func(rec journal.Record) error {
		p.jReplayed++
		switch rec.Kind {
		case journal.KindReconfig:
			ctlplane.ApplyRecord(p, rec)
		case journal.KindInvokeEnd:
			if rec.A == 0 { // failed outcomes (A=1) stay retryable
				p.dedup.MarkReplayed(rec.Key, rec.Digest)
			}
		case journal.KindChunkDone:
			for i := int64(0); i < rec.B; i++ {
				p.dedup.MarkReplayed(journal.ChunkKey(rec.Key, int(rec.A+i)), rec.Digest)
			}
		}
		return nil
	})
}

// JournalReplayed reports how many records construction replayed.
func (p *Platform) JournalReplayed() uint64 { return p.jReplayed }

// DedupHits reports duplicate keyed invocations absorbed by the
// completed-key table.
func (p *Platform) DedupHits() uint64 { return p.dedup.Hits() }

// settleKey resolves one executed key: success completes it (dedup
// entry caches the outputs, journal gets the outcome digest), failure
// releases it so a retry may re-execute (the end record's A=1 keeps
// the audit trail without poisoning replay).
func (p *Platform) settleKey(tenant, name, key string, outs map[string][]memctx.Item, err error) {
	if err != nil {
		p.dedup.Release(key)
		p.journalAppend(journal.Record{
			Kind: journal.KindInvokeEnd, Tenant: tenant, Comp: name, Key: key,
			A: 1, Digest: journal.DigestOutcome(nil, err.Error()),
		})
		return
	}
	od := journal.DigestOutcome(outs, "")
	// Complete before journaling so a concurrent replayer observing the
	// record always finds the key in the table.
	p.dedup.Complete(key, od, outs)
	p.journalAppend(journal.Record{
		Kind: journal.KindInvokeEnd, Tenant: tenant, Comp: name, Key: key, Digest: od,
	})
}

// keyedBatch tracks the keyed requests of one InvokeBatch call.
type keyedBatch struct {
	skip     []bool // resolved from the dedup table; not executed
	executed []int  // request indices reserved for execution
	chunk    bool   // all requests form one contiguous chunk-key run
	base     string
	lo       int
}

// beginKeyedBatch resolves the batch's keyed requests against the
// dedup table before dispatch. Duplicates are answered in place and
// masked out of execution; fresh keys are reserved and journaled.
// Returns nil when the batch carries no keys (the journal-free hot
// path). A batch whose keys form one contiguous chunk run ("base#lo"
// .. "base#lo+n-1", as assigned by cluster.Manager) defers journaling
// to a single KindChunkDone record at completion instead of
// per-request begin/end pairs.
func (p *Platform) beginKeyedBatch(reqs []Request, results []Result) *keyedBatch {
	anyKey := false
	allKeyed := true
	for i := range reqs {
		if reqs[i].Key != "" {
			anyKey = true
		} else {
			allKeyed = false
		}
	}
	if !anyKey {
		return nil
	}
	kb := &keyedBatch{skip: make([]bool, len(reqs))}
	if allKeyed {
		keys := make([]string, len(reqs))
		for i := range reqs {
			keys[i] = reqs[i].Key
		}
		kb.base, kb.lo, kb.chunk = journal.ChunkShape(keys)
	}
	for i := range reqs {
		key := reqs[i].Key
		if key == "" {
			continue
		}
		outs, derr, execute := p.dedup.Reserve(key)
		if !execute {
			results[i] = Result{Outputs: outs, Err: derr}
			kb.skip[i] = true
			continue
		}
		kb.executed = append(kb.executed, i)
		if !kb.chunk {
			p.journalAppend(journal.Record{
				Kind: journal.KindInvokeBegin, Tenant: tenantOrDefault(reqs[i].Tenant),
				Comp: reqs[i].Composition, Key: key,
				Digest: journal.DigestSets(reqs[i].Inputs),
			})
		}
	}
	return kb
}

// finishKeyedBatch settles every executed key. A fully-successful
// chunk-shaped batch journals one KindChunkDone record covering the
// whole key run (combined outcome digest: XOR of the per-request
// digests); anything else settles per request.
func (p *Platform) finishKeyedBatch(kb *keyedBatch, reqs []Request, results []Result) {
	if len(kb.executed) == 0 {
		return
	}
	if kb.chunk {
		allOK := true
		for _, i := range kb.executed {
			if results[i].Err != nil {
				allOK = false
				break
			}
		}
		if allOK {
			var combined uint64
			for _, i := range kb.executed {
				od := journal.DigestOutcome(results[i].Outputs, "")
				p.dedup.Complete(reqs[i].Key, od, results[i].Outputs)
				combined ^= od
			}
			p.journalAppend(journal.Record{
				Kind: journal.KindChunkDone, Tenant: tenantOrDefault(reqs[0].Tenant),
				Comp: reqs[0].Composition, Key: kb.base,
				A: int64(kb.lo), B: int64(len(reqs)), Digest: combined,
			})
			return
		}
	}
	for _, i := range kb.executed {
		p.settleKey(tenantOrDefault(reqs[i].Tenant), reqs[i].Composition, reqs[i].Key, results[i].Outputs, results[i].Err)
	}
}
