// spgraph/sp_reduce.hpp
//
// Exhaustive series/parallel reduction of a two-terminal AoA network —
// the recognition algorithm of Valdes, Tarjan and Lawler specialized to
// our use: a network is (two-terminal) series-parallel iff the rewrite
// system below reduces it to a single source->sink arc.
//
//   series:   internal node v with in-degree 1 and out-degree 1:
//             arcs (u,v), (v,w) merge into (u,w) with the *convolution*
//             of their duration distributions;
//   parallel: two arcs with identical endpoints (u,w) merge into one arc
//             with the distribution of the *maximum* (independent).
//
// On an SP network the resulting single arc carries the exact makespan
// distribution (exact modulo the atom budget). On a non-SP network the
// reductions stall; Dodin's algorithm (dodin.hpp) then duplicates a node
// and resumes.

#pragma once

#include <cstddef>
#include <limits>

#include "exp/workspace.hpp"
#include "prob/dist_kernels.hpp"
#include "scenario/scenario.hpp"
#include "spgraph/arc_network.hpp"
#include "util/contracts.hpp"

namespace expmk::sp {

/// Outcome of exhaustive reduction.
struct ReduceStats {
  std::size_t series = 0;     ///< series merges applied
  std::size_t parallel = 0;   ///< parallel merges applied
  /// Atom-cap truncation accounting: operations that hit the cap
  /// (`truncation.events`), individual pair merges, and the certified
  /// expectation-shift envelope — the untruncated pipeline's mean lies
  /// in [mean - truncation.up, mean + truncation.down] (see
  /// prob/dist_kernels.hpp).
  prob::dist_kernels::TruncationCert truncation;
  bool reduced_to_single_arc = false;
};

/// Applies series/parallel reductions until none applies. `max_atoms`
/// bounds every intermediate distribution (0 = exact/unbounded).
/// Worklist-driven: O((#merges) * degree) plus distribution costs.
ReduceStats reduce_exhaustively(ArcNetwork& net, std::size_t max_atoms);

/// Incremental variant: only re-examines `seeds` and whatever their merges
/// touch. Used by Dodin's loop so a duplication triggers local rewriting
/// instead of a full network pass. Accumulates counts into `stats`.
void reduce_from(ArcNetwork& net, std::vector<NodeId> seeds,
                 std::size_t max_atoms, ReduceStats& stats);

/// Result of evaluating a network that is (or reduces to) series-parallel.
struct SpEvaluation {
  bool is_series_parallel = false;
  /// Makespan distribution; meaningful only when is_series_parallel.
  prob::DiscreteDistribution makespan;
  ReduceStats stats;
};

/// Convenience: reduce a copy of the network built from `g` and report
/// whether it was SP, together with the exact makespan distribution
/// (task durations = 2-state laws for the given failure model's lambda).
SpEvaluation evaluate_sp(ArcNetwork net, std::size_t max_atoms = 0);

/// Scenario entry point: builds the AoA network with each task's own
/// 2-state law (a_i w.p. p_i, else 2 a_i) from the scenario's cached
/// success probabilities — heterogeneous per-task rates supported — and
/// reduces it with the FLAT engine (flat_network.cpp) on `ws`-leased
/// arenas, materializing the SpEvaluation (allocating only for the
/// returned distribution object). Prefer evaluate_sp_flat on the serving
/// hot path. The scenario's retry model must be TwoState.
SpEvaluation evaluate_sp(const scenario::Scenario& sc, std::size_t max_atoms,
                         exp::Workspace& ws);

/// Flat evaluation result: everything SpEvaluation carries except the
/// distribution object, so the hot path stays allocation-free.
struct SpFlatEvaluation {
  bool is_series_parallel = false;
  /// E[makespan]; NaN unless is_series_parallel.
  double mean = std::numeric_limits<double>::quiet_NaN();
  ReduceStats stats;
};

/// The flat engine's entry point (the registry's `sp` hot path): builds
/// the AoA network with per-task 2-state laws from the scenario's cached
/// success probabilities (heterogeneous rates supported), reduces it on
/// `ws`-leased flat atom arenas, and returns the mean plus stats — ZERO
/// heap allocations at steady state on a warm workspace, and bit-identical
/// (operation order and all) to the DiscreteDistribution-object reduction
/// of evaluate_sp(ArcNetwork), which tests/test_flat_spgraph.cpp pins.
/// When `capture` is non-null and the network is SP, the makespan law is
/// materialized into it (allocates). The scenario's retry model must be
/// TwoState.
EXPMK_NOALLOC SpFlatEvaluation evaluate_sp_flat(const scenario::Scenario& sc,
                                  std::size_t max_atoms, exp::Workspace& ws,
                                  prob::DiscreteDistribution* capture = nullptr);

}  // namespace expmk::sp
