#include "spgraph/dodin.hpp"

#include <stdexcept>

#include "spgraph/sp_reduce.hpp"

namespace expmk::sp {

namespace {

/// A duplication site: either a join (in-degree >= 2, out-degree == 1;
/// one in-arc moves to the clone, the single out-arc is copied) or a fork
/// (in-degree == 1, out-degree >= 2; one out-arc moves to the clone, the
/// single in-arc is copied). Both are "cost-1": the clone has degree
/// (1,1) and series-merges immediately, so the alive arc count never
/// grows. In an exhaustively reduced non-trivial network the
/// topologically-first internal node is always a fork (its only
/// predecessor is the source, and parallel merges collapsed the multi-
/// arcs), so a site always exists; joins are preferred when present
/// because duplicating joins is Dodin's original rule.
struct Site {
  NodeId node = 0;
  bool is_join = false;
  bool found = false;
};

Site pick_duplication(const ArcNetwork& net) {
  Site fork_site;
  for (const NodeId v : net.topological_nodes()) {
    if (v == net.source() || v == net.sink()) continue;
    const std::size_t in = net.in_degree(v);
    const std::size_t out = net.out_degree(v);
    if (in >= 2 && out == 1) return {v, /*is_join=*/true, true};
    if (!fork_site.found && in == 1 && out >= 2) {
      fork_site = {v, /*is_join=*/false, true};
    }
  }
  return fork_site;
}

}  // namespace

DodinResult dodin(ArcNetwork net, const DodinOptions& options) {
  DodinResult result;
  ReduceStats first_pass = reduce_exhaustively(net, options.max_atoms);
  result.series_reductions += first_pass.series;
  result.parallel_reductions += first_pass.parallel;
  result.truncation.accumulate(first_pass.truncation);

  const auto is_single_arc = [&net] {
    return net.arc_count() == 1 && net.out_degree(net.source()) == 1 &&
           net.arc(net.out_arcs(net.source())[0]).to == net.sink();
  };

  while (!is_single_arc()) {
    const Site site = pick_duplication(net);
    if (!site.found) {
      throw std::logic_error(
          "dodin: irreducible network with no duplication site (internal "
          "error)");
    }
    const NodeId v = site.node;
    const NodeId clone = net.add_node();
    if (site.is_join) {
      // Move one in-arc (u,v) to (u,clone); copy the single out-arc.
      const ArcId moved = net.in_arcs(v).front();
      net.retarget_arc(moved, clone);
      const ArcId out = net.out_arcs(v).front();
      net.add_arc(clone, net.arc(out).to, net.arc(out).dist);
    } else {
      // Fork: move one out-arc (v,w) to (clone,w); copy the single in-arc
      // (u,v) as (u,clone). The copy is an independent duplicate of the
      // prefix duration — the same independence approximation as the join
      // rule, applied upstream.
      const ArcId moved_out = net.out_arcs(v).front();
      const ArcId in = net.in_arcs(v).front();
      const NodeId u = net.arc(in).from;
      const NodeId w = net.arc(moved_out).to;
      // Retarget the out-arc's tail by re-adding (ArcNetwork only moves
      // heads), i.e. remove + add with the same distribution.
      auto dist = net.arc(moved_out).dist;
      net.remove_arc(moved_out);
      net.add_arc(clone, w, std::move(dist));
      net.add_arc(u, clone, net.arc(in).dist);
    }
    // Local rewrite around the surgery; the clone series-merges here.
    ReduceStats local;
    std::vector<NodeId> seeds = {v, clone};
    for (const ArcId id : net.in_arcs(clone)) {
      seeds.push_back(net.arc(id).from);
    }
    for (const ArcId id : net.out_arcs(clone)) {
      seeds.push_back(net.arc(id).to);
    }
    reduce_from(net, std::move(seeds), options.max_atoms, local);
    result.series_reductions += local.series;
    result.parallel_reductions += local.parallel;
    result.truncation.accumulate(local.truncation);

    if (++result.duplications > options.max_duplications) {
      throw std::runtime_error(
          "dodin: duplication budget exhausted — network too entangled");
    }
  }
  // The single remaining arc carries the approximate makespan law.
  result.makespan = net.arc(net.out_arcs(net.source())[0]).dist;
  return result;
}

DodinResult dodin_two_state(const scenario::Scenario& sc,
                            const DodinOptions& options, exp::Workspace& ws) {
  // The flat engine (flat_network.cpp) does all the work on ws-leased
  // arenas — heterogeneous per-task rates included; this overload only
  // materializes the distribution object.
  DodinResult result;
  const DodinFlatResult flat =
      dodin_two_state_flat(sc, options, ws, &result.makespan);
  result.duplications = flat.duplications;
  result.series_reductions = flat.series_reductions;
  result.parallel_reductions = flat.parallel_reductions;
  result.truncation = flat.truncation;
  return result;
}

}  // namespace expmk::sp
