// Package unified implements Spark's UnifiedMemoryManager semantics — the
// arbitration between cache storage and execution (shuffle) memory inside
// the single pool that spark.memory.fraction bounds (§2.1, [47] in the
// paper):
//
//   - execution may borrow any storage space not in use, and may also evict
//     cached blocks, but never below the protected storage region
//     (spark.memory.storageFraction);
//   - storage may borrow unused execution space, but borrowed storage is
//     evicted as soon as execution asks for its memory back;
//   - execution memory, once granted, is never revoked (tasks would
//     deadlock), so storage requests only get what execution left behind.
//
// The simulator plans each task's shuffle grant with ExecutionShare
// (internal/sim/exec); it keeps no pool state of its own.
package unified

import "relm/internal/units"

// ExecutionShare answers the planning question the execution engine asks:
// with storageMB currently cached, how much execution memory can each of p
// concurrent tasks obtain? Spark grants each task between pool/(2p) and
// pool/p of the *evictable* pool; this returns the optimistic fair share.
func ExecutionShare(poolMB, protectedMB, storageMB float64, p int) float64 {
	if p < 1 {
		p = 1
	}
	keep := units.Clamp(storageMB, 0, units.Clamp(protectedMB, 0, poolMB))
	avail := units.MaxF(poolMB-keep, 0)
	return avail / float64(p)
}
