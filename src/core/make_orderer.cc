#include "core/make_orderer.h"

#include <utility>
#include <vector>

#include "core/greedy.h"
#include "core/idrips.h"
#include "core/pi.h"
#include "core/plan_space.h"
#include "core/streamer.h"

namespace planorder::core {

namespace {

constexpr OrdererKind kAllKinds[] = {OrdererKind::kGreedy,
                                     OrdererKind::kIDrips,
                                     OrdererKind::kStreamer, OrdererKind::kPi,
                                     OrdererKind::kNaive};

template <typename T>
StatusOr<std::unique_ptr<Orderer>> Upcast(
    StatusOr<std::unique_ptr<T>> built) {
  if (!built.ok()) return built.status();
  return std::unique_ptr<Orderer>(std::move(built).value());
}

}  // namespace

std::string OrdererKindName(OrdererKind kind) {
  switch (kind) {
    case OrdererKind::kGreedy:
      return "greedy";
    case OrdererKind::kIDrips:
      return "idrips";
    case OrdererKind::kStreamer:
      return "streamer";
    case OrdererKind::kPi:
      return "pi";
    case OrdererKind::kNaive:
      return "naive";
  }
  return "unknown";
}

StatusOr<OrdererKind> OrdererKindFromName(const std::string& name) {
  for (OrdererKind kind : kAllKinds) {
    if (OrdererKindName(kind) == name) return kind;
  }
  return InvalidArgumentError("unknown algorithm '" + name + "'");
}

bool Applicable(OrdererKind kind, const utility::UtilityModel& model) {
  switch (kind) {
    case OrdererKind::kGreedy:
      return model.fully_monotonic();
    case OrdererKind::kStreamer:
      return model.diminishing_returns();
    case OrdererKind::kIDrips:
    case OrdererKind::kPi:
    case OrdererKind::kNaive:
      return true;
  }
  return false;
}

OrdererKind ChooseOrderer(const utility::UtilityModel& model) {
  if (model.fully_monotonic()) return OrdererKind::kGreedy;
  if (model.diminishing_returns()) return OrdererKind::kStreamer;
  return OrdererKind::kIDrips;
}

StatusOr<std::unique_ptr<Orderer>> MakeOrderer(
    OrdererKind kind, const stats::Workload* workload,
    utility::UtilityModel* model, const OrdererOptions& options) {
  std::vector<PlanSpace> spaces = {PlanSpace::FullSpace(*workload)};
  switch (kind) {
    case OrdererKind::kGreedy:
      return Upcast(GreedyOrderer::Create(workload, model, std::move(spaces)));
    case OrdererKind::kIDrips:
      return Upcast(
          IDripsOrderer::Create(workload, model, std::move(spaces), options));
    case OrdererKind::kStreamer:
      return Upcast(StreamerOrderer::Create(workload, model, std::move(spaces),
                                            options));
    case OrdererKind::kPi:
    case OrdererKind::kNaive:
      return Upcast(PiOrderer::Create(workload, model, std::move(spaces),
                                      /*use_independence=*/kind ==
                                          OrdererKind::kPi));
  }
  return InvalidArgumentError("unknown algorithm kind");
}

}  // namespace planorder::core
