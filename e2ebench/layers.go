package main

import "strings"

// A CPU-profile sample is charged to exactly one layer: the stack is read
// from the leaf towards the root, and the first frame that matches a rule
// names the layer. Frames no rule matches (the standard library, sort,
// strconv, internal/bitio and internal/stats beneath core, chunkcache
// beneath tsfile) are charged to the nearest caller that matches, and a
// sample with no matching frame at all is charged to "other". Within one
// frame the first matching rule wins, so a specific prefix must come
// before a more general one.

// layerRule maps a function-name prefix to a layer.
type layerRule struct {
	prefix, layer string
}

// Layer names; each is reported as cpu.<name>_pct.
const (
	layerParse     = "server.parse"
	layerHTTP      = "server.http"
	layerWAL       = "engine.wal"
	layerMemtable  = "engine.memtable"
	layerQueryPlan = "engine.queryplan"
	layerCompact   = "engine.compact"
	layerStats     = "engine.stats"
	layerPlan      = "core.plan"
	layerEncode    = "core.encode"
	layerDecode    = "core.decode"
	layerTSFile    = "tsfile"
	layerPushdown  = "pushdown"
	layerGC        = "gc"
	layerMalloc    = "malloc"
	layerLoadgen   = "loadgen"
	layerOther     = "other"
)

// layers lists every layer in report order; other comes last.
var layers = []string{
	layerParse, layerHTTP, layerWAL, layerMemtable, layerQueryPlan, layerCompact, layerStats,
	layerPlan, layerEncode, layerDecode, layerTSFile, layerPushdown,
	layerGC, layerMalloc, layerLoadgen, layerOther,
}

const (
	pkgCore   = "bos/internal/core."
	pkgEngine = "bos/internal/engine."
	pkgServer = "bos/internal/server."
)

// layerRules is the attribution table.
var layerRules = []layerRule{
	// Runtime: garbage collection, then allocation. Assist work inside
	// mallocgc is a deeper frame than mallocgc, so it counts as gc.
	{"runtime.gc", layerGC}, // gcBgMarkWorker, gcDrain, gcAssistAlloc, gcWriteBarrier, ...
	{"runtime._GC", layerGC},
	{"runtime.markroot", layerGC},
	{"runtime.scanobject", layerGC},
	{"runtime.scanblock", layerGC},
	{"runtime.scanstack", layerGC},
	{"runtime.scanframeworker", layerGC},
	{"runtime.greyobject", layerGC},
	{"runtime.findObject", layerGC},
	{"runtime.wbBuf", layerGC},
	{"runtime.bulkBarrier", layerGC},
	{"runtime.bgsweep", layerGC},
	{"runtime.sweepone", layerGC},
	{"runtime.(*mspan).sweep", layerGC},
	{"runtime.(*sweepLocked)", layerGC},
	{"runtime.bgscavenge", layerGC},
	{"runtime.(*gcWork)", layerGC},
	{"runtime.mallocgc", layerMalloc},
	{"runtime.newobject", layerMalloc},
	{"runtime.newarray", layerMalloc},
	{"runtime.makeslice", layerMalloc},
	{"runtime.growslice", layerMalloc},
	{"runtime.makemap", layerMalloc},
	{"runtime.(*mcache)", layerMalloc},
	{"runtime.(*mcentral)", layerMalloc},
	{"runtime.(*mheap).alloc", layerMalloc},

	// internal/core: BOS planning, block encode and block decode.
	{pkgCore + "Plan", layerPlan},
	{pkgCore + "plan", layerPlan},
	{pkgCore + "(*Plan)", layerPlan},
	{pkgCore + "partitionCost", layerPlan},
	{pkgCore + "positionCost", layerPlan},
	{pkgCore + "better", layerPlan},
	{pkgCore + "spread", layerPlan},
	{pkgCore + "classWidth", layerPlan},
	{pkgCore + "firstGE", layerPlan},
	{pkgCore + "addCap", layerPlan},
	{pkgCore + "subFloor", layerPlan},
	{pkgCore + "median", layerPlan},
	{pkgCore + "Median", layerPlan},
	{pkgCore + "resolve", layerPlan},
	{pkgCore + "Encode", layerEncode},
	{pkgCore + "encode", layerEncode},
	{pkgCore + "classOf", layerEncode},
	{pkgCore + "huffman", layerEncode},
	{pkgCore + "canonicalCodes", layerEncode},
	{pkgCore + "(*Packer).Pack", layerEncode},
	{pkgCore + "Decode", layerDecode},
	{pkgCore + "decode", layerDecode},
	{pkgCore + "growInt64", layerDecode},
	{pkgCore + "(*Packer).Unpack", layerDecode},
	{pkgCore + "(*bosHead)", layerDecode},
	{pkgCore + "parseBOSHead", layerDecode},
	{pkgCore + "readClasses", layerDecode},
	{pkgCore + "advanceBits", layerDecode},
	{pkgCore + "SkipBlock", layerDecode},
	{pkgCore + "FilterBlock", layerDecode},
	{pkgCore + "band", layerDecode},

	// internal/engine.
	{pkgEngine + "(*Engine).walEnqueue", layerWAL},
	{pkgEngine + "(*Engine).walAwait", layerWAL},
	{pkgEngine + "(*Engine).sealFormingGroup", layerWAL},
	{pkgEngine + "(*wal)", layerWAL},
	{pkgEngine + "frameRecord", layerWAL},
	{pkgEngine + "append", layerWAL}, // appendInsertPayload, appendFloatPayload, ...
	{pkgEngine + "openWAL", layerWAL},
	{pkgEngine + "(*Engine).Insert", layerMemtable}, // Insert, InsertBatch, InsertFloatBatch
	{pkgEngine + "(*Engine).memSnapshot", layerMemtable},
	{pkgEngine + "dedupeSort", layerMemtable},
	{pkgEngine + "(*Engine).Flush", layerMemtable},
	{pkgEngine + "(*Engine).maybeFlush", layerMemtable},
	{pkgEngine + "(*Engine).flushSnapshot", layerMemtable},
	{pkgEngine + "(*Engine).takeSnapshot", layerMemtable},
	{pkgEngine + "(*Engine).encodeSnapshot", layerMemtable},
	{pkgEngine + "(*Engine).commitSnapshot", layerMemtable},
	{pkgEngine + "(*Compaction)", layerCompact},
	{pkgEngine + "(*Engine).Compact", layerCompact}, // Compact, CompactWith
	{pkgEngine + "(*Engine).SnapshotCompaction", layerCompact},
	{pkgEngine + "(*Engine).SeriesKind", layerQueryPlan},
	{pkgEngine + "(*Engine).Stats", layerStats},
	{pkgEngine + "(*Engine).SeriesStats", layerStats},
	{pkgEngine + "(*Engine).Series", layerStats},
	{pkgEngine + "(*Engine).planPushdown", layerQueryPlan},
	{pkgEngine + "(*Engine).WindowAgg", layerQueryPlan},
	{pkgEngine + "(*Engine).Downsample", layerQueryPlan},
	{pkgEngine + "(*Engine).Aggregate", layerQueryPlan},
	{pkgEngine + "(*Engine).Query", layerQueryPlan}, // Query, QueryEach, QueryFloats, QueryFilterEach
	{pkgEngine + "(*Engine).query", layerQueryPlan},
	{pkgEngine + "(*Engine).rebuildScan", layerQueryPlan},
	{pkgEngine + "(*Engine).scanPage", layerQueryPlan},
	{pkgEngine + "(*Engine).masked", layerQueryPlan},
	{pkgEngine + "advanceScan", layerQueryPlan},
	{pkgEngine + "groupByFile", layerQueryPlan},

	{"bos/internal/tsfile.", layerTSFile},
	{"bos/internal/pushdown.", layerPushdown},

	// internal/server: line-protocol parsing, then everything else the
	// server does (handlers, group commit, CSV and JSON replies) with the
	// net/http server underneath it.
	{pkgServer + "parseBatch", layerParse},
	{pkgServer + "(*batch)", layerParse},
	{pkgServer + "newBatch", layerParse},
	{pkgServer + "parseDecimalFloat", layerParse},
	{pkgServer + "isFloatSyntax", layerParse},
	{pkgServer, layerHTTP},
	{"main.(*tracedHandler)", layerHTTP},
	{"main.(*tracedBackend)", layerHTTP},
	{"net/http.(*conn)", layerHTTP},
	{"net/http.(*Server)", layerHTTP},

	// The benchmark's own clients, generator and checks.
	{"main.", layerLoadgen},
	{"net/http.(*persistConn)", layerLoadgen},
	{"net/http.(*Transport)", layerLoadgen},
	{"net/http.(*Client)", layerLoadgen},
}

// layerOf charges one stack, given leaf first, to its layer.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, r := range layerRules {
			if strings.HasPrefix(fn, r.prefix) {
				return r.layer
			}
		}
	}
	return layerOther
}

// layerShares charges every sample to its layer and returns each layer's
// share of all samples in percent. Every layer is present; the shares sum
// to 100 when there is at least one sample.
func layerShares(samples []sample) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[layerOf(s.stack)] += s.count
		total += s.count
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			out[l] = 100 * float64(counts[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}
