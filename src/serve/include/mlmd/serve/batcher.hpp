#pragma once
// Cross-request inference micro-batcher (DESIGN.md Sec. 14.3). Concurrent
// kNeural sessions all stop at the same place each step — an Eq. (4)
// mixed-force evaluation — so all their lattices go to one
// nnq::xs_mixed_forces_multi call. What that buys is one pooled launch
// across every session's cells: the cells are cut into chunks that all
// of the pool's threads share, where a per-session call would offer each
// launch only one lattice's chunks.
//
// Correctness is free, not approximate: every batched Mlp pass is
// bitwise-identical per row to the scalar pass (mlp.hpp contract), so the
// forces each session receives do not depend on who shared its batch.
// `verify` re-derives each session's forces unbatched and memcmps —
// the belt-and-braces mode the serve tests run with.

#include <cstddef>
#include <vector>

#include "mlmd/mlmd/pipeline.hpp"

namespace mlmd::serve {

class MicroBatcher {
 public:
  /// `max_batch` caps sessions per fused evaluation (chunking bound, not a
  /// drop); `verify` memcmps every batched force set against the
  /// per-session nnq::xs_mixed_forces result and throws std::logic_error
  /// on any mismatch.
  explicit MicroBatcher(std::size_t max_batch = 8, bool verify = false);

  /// Advance every session in `group` by one step with batch-evaluated
  /// forces. All sessions must wants_neural_forces() and share one
  /// (gs_model, xs_model) pair — the caller groups by model identity.
  /// Returns the number of sessions stepped. Observes
  /// serve.batch.occupancy per fused evaluation.
  ///
  /// A session whose step trips its guard (GuardTripped under kAbort) is
  /// reported through `failures` — the scheduler fails that scenario
  /// while the rest of the batch proceeds. With failures == nullptr the
  /// exception propagates.
  std::size_t step_group(
      const std::vector<pipeline::Session*>& group,
      std::vector<std::pair<pipeline::Session*, std::string>>* failures =
          nullptr);

  std::size_t max_batch() const { return max_batch_; }

 private:
  std::size_t max_batch_;
  bool verify_;
};

} // namespace mlmd::serve
