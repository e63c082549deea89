#ifndef PLANORDER_CORE_MAKE_ORDERER_H_
#define PLANORDER_CORE_MAKE_ORDERER_H_

#include <memory>
#include <string>

#include "base/status.h"
#include "core/abstraction.h"
#include "core/orderer.h"
#include "stats/workload.h"
#include "utility/model.h"

namespace planorder::core {

/// The plan-ordering algorithms, by name. This is the one place the library
/// names an algorithm: the service, the adaptive loop, the sim, the benches
/// and the CLI all pick one through this enum and build it through
/// MakeOrderer.
enum class OrdererKind {
  kGreedy,    // Section 4; fully monotonic measures only
  kIDrips,    // Section 5.2, persistent frontier (DESIGN.md §6)
  kStreamer,  // Section 5.2 Figure 5; diminishing-returns measures only
  kPi,        // PI reference (brute force + independence filter)
  kNaive,     // brute force re-evaluating every plan per emission (ablation)
};

/// Stable name ("greedy", "idrips", "streamer", "pi", "naive") — the
/// orderer's name() — and its inverse (kInvalidArgument on unknown names).
std::string OrdererKindName(OrdererKind kind);
StatusOr<OrdererKind> OrdererKindFromName(const std::string& name);

/// True when `kind` can order under `model`: Greedy needs full
/// monotonicity, Streamer diminishing returns; the rest are universal.
bool Applicable(OrdererKind kind, const utility::UtilityModel& model);

/// The paper's Section 6 guidance: Greedy when the measure is fully
/// monotonic; otherwise Streamer when it can recycle dominance relations
/// (diminishing returns); otherwise iDrips (e.g. operation caching).
OrdererKind ChooseOrderer(const utility::UtilityModel& model);

/// Builds `kind` over the full plan space of `workload`. Fails with
/// kFailedPrecondition when `kind` is not Applicable to `model`. `options`
/// tune the abstraction-based orderers (iDrips, Streamer); the others ignore
/// them. Orderers over custom plan spaces are built by their own Create.
StatusOr<std::unique_ptr<Orderer>> MakeOrderer(
    OrdererKind kind, const stats::Workload* workload,
    utility::UtilityModel* model, const OrdererOptions& options = {});

}  // namespace planorder::core

#endif  // PLANORDER_CORE_MAKE_ORDERER_H_
