#ifndef PLANORDER_EXEC_DEPENDENT_JOIN_H_
#define PLANORDER_EXEC_DEPENDENT_JOIN_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "base/status.h"
#include "datalog/conjunctive_query.h"
#include "exec/source_access.h"

namespace planorder::exec {

/// Per-atom record of a dependent-join execution.
struct AtomAccess {
  std::string source;
  /// Number of source calls (distinct binding combinations fed in).
  int64_t calls = 0;
  /// Tuples the source shipped back across those calls.
  int64_t tuples_shipped = 0;
};

/// The execution trace of one plan: one entry per body atom, in execution
/// order. `ModeledCost` prices it exactly the way cost measure (2) prices a
/// plan — h per call plus alpha per shipped tuple — so traces are directly
/// comparable against the utility model's estimate.
struct ExecutionTrace {
  std::vector<AtomAccess> atoms;

  int64_t TotalCalls() const;
  int64_t TotalTuplesShipped() const;
  /// sum over atoms of (calls * access_overhead + tuples * alpha(atom)).
  double ModeledCost(double access_overhead,
                     const std::vector<double>& alpha_per_atom) const;
};

/// Resolves a body predicate to the source the join validates it against
/// (arity, function-free arguments, binding pattern) before any call is
/// made; nullptr when no such source exists.
using SourceLookup =
    std::function<const AccessibleSource*(const std::string& predicate)>;

/// One atom's batched semi-join: ships `batch` — the distinct binding
/// combinations flowing in from the prefix, in first-seen order, all binding
/// one position set, never empty — to the source `predicate` names, and
/// returns the deduplicated union of the matching rows in the order
/// AccessibleSource::FetchBatch returns them. Records the source calls made
/// and tuples shipped in `access`. A non-OK status fails the whole plan.
using BatchFetch =
    std::function<StatusOr<std::vector<std::vector<datalog::Term>>>(
        const std::string& predicate,
        const std::vector<std::map<int, datalog::Term>>& batch,
        AtomAccess& access)>;

/// Executes a rewriting p(Y) :- V1(U1), ..., Vn(Un) by left-to-right
/// *dependent joins*, the strategy cost measure (2) models: atom 1 is fetched
/// with its constant bindings, every later atom is called once per distinct
/// combination of values flowing in from the prefix (the semi-join "feed the
/// titles into V_j"), shipped as one batch through `fetch`. Comparison atoms
/// filter the bindings locally. Returns the distinct head tuples in frontier
/// order and, optionally, the access trace (one entry per body atom).
///
/// The rewriting must be safe and `find` must resolve every body predicate.
StatusOr<std::vector<std::vector<datalog::Term>>> ExecutePlanDependent(
    const datalog::ConjunctiveQuery& rewriting, const SourceLookup& find,
    const BatchFetch& fetch, ExecutionTrace* trace = nullptr);

/// The serial dependent join against the registry: each batch is one
/// AccessibleSource::FetchBatch call.
StatusOr<std::vector<std::vector<datalog::Term>>> ExecutePlanDependent(
    const datalog::ConjunctiveQuery& rewriting, SourceRegistry& sources,
    ExecutionTrace* trace = nullptr);

}  // namespace planorder::exec

#endif  // PLANORDER_EXEC_DEPENDENT_JOIN_H_
