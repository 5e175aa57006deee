#include "spgraph/sp_reduce.hpp"

#include <algorithm>
#include <map>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "prob/dist_kernels.hpp"

namespace expmk::sp {

namespace {

namespace dk = prob::dist_kernels;

/// Tries to parallel-merge duplicate out-arcs of `u`. Returns merges done.
std::size_t parallel_merge_at(ArcNetwork& net, NodeId u,
                              std::size_t max_atoms,
                              std::vector<NodeId>& touched,
                              dk::TruncationCert& cert) {
  std::size_t merges = 0;
  // Group alive out-arcs by head node.
  std::map<NodeId, std::vector<ArcId>> groups;
  for (const ArcId id : net.out_arcs(u)) {
    groups[net.arc(id).to].push_back(id);
  }
  for (auto& [head, ids] : groups) {
    if (ids.size() < 2) continue;
    prob::DiscreteDistribution acc = net.arc(ids[0]).dist;
    for (std::size_t i = 1; i < ids.size(); ++i) {
      acc = prob::DiscreteDistribution::max_of(acc, net.arc(ids[i]).dist,
                                               max_atoms, &cert);
      net.remove_arc(ids[i]);
      ++merges;
    }
    net.arc(ids[0]).dist = std::move(acc);
    touched.push_back(head);
    touched.push_back(u);
  }
  return merges;
}

/// Tries a series merge at internal node `v`. Returns true if applied.
bool series_merge_at(ArcNetwork& net, NodeId v, std::size_t max_atoms,
                     std::vector<NodeId>& touched,
                     dk::TruncationCert& cert) {
  if (v == net.source() || v == net.sink()) return false;
  if (net.in_degree(v) != 1 || net.out_degree(v) != 1) return false;
  const ArcId in_id = net.in_arcs(v)[0];
  const ArcId out_id = net.out_arcs(v)[0];
  const NodeId u = net.arc(in_id).from;
  const NodeId w = net.arc(out_id).to;
  auto merged = prob::DiscreteDistribution::convolve(
      net.arc(in_id).dist, net.arc(out_id).dist, max_atoms, &cert);
  net.remove_arc(in_id);
  net.remove_arc(out_id);
  net.add_arc(u, w, std::move(merged));
  touched.push_back(u);
  touched.push_back(w);
  return true;
}

}  // namespace

void reduce_from(ArcNetwork& net, std::vector<NodeId> seeds,
                 std::size_t max_atoms, ReduceStats& stats) {
  std::vector<NodeId> work = std::move(seeds);
  std::vector<NodeId> touched;
  dk::TruncationCert cert;
  while (!work.empty()) {
    const NodeId v = work.back();
    work.pop_back();
    touched.clear();

    const std::size_t p = parallel_merge_at(net, v, max_atoms, touched, cert);
    stats.parallel += p;
    if (series_merge_at(net, v, max_atoms, touched, cert)) ++stats.series;

    for (const NodeId t : touched) work.push_back(t);
    // A parallel merge at v may enable a series merge at v itself.
    if (p > 0) work.push_back(v);
  }
  stats.truncation.accumulate(cert);
}

ReduceStats reduce_exhaustively(ArcNetwork& net, std::size_t max_atoms) {
  ReduceStats stats;
  std::vector<NodeId> all;
  all.reserve(net.node_count());
  for (NodeId v = 0; v < net.node_count(); ++v) all.push_back(v);
  reduce_from(net, std::move(all), max_atoms, stats);

  stats.reduced_to_single_arc =
      net.arc_count() == 1 && net.out_degree(net.source()) == 1 &&
      net.in_degree(net.sink()) == 1 &&
      net.arc(net.out_arcs(net.source())[0]).to == net.sink();
  return stats;
}

SpEvaluation evaluate_sp(ArcNetwork net, std::size_t max_atoms) {
  SpEvaluation out;
  out.stats = reduce_exhaustively(net, max_atoms);
  out.is_series_parallel = out.stats.reduced_to_single_arc;
  if (out.is_series_parallel) {
    out.makespan = net.arc(net.out_arcs(net.source())[0]).dist;
  }
  return out;
}

SpEvaluation evaluate_sp(const scenario::Scenario& sc, std::size_t max_atoms,
                         exp::Workspace& ws) {
  // The flat engine (flat_network.cpp) does all the work on ws-leased
  // arenas; this overload only materializes the distribution object.
  SpEvaluation out;
  prob::DiscreteDistribution makespan;
  const SpFlatEvaluation flat =
      evaluate_sp_flat(sc, max_atoms, ws, &makespan);
  out.is_series_parallel = flat.is_series_parallel;
  out.stats = flat.stats;
  if (flat.is_series_parallel) out.makespan = std::move(makespan);
  return out;
}

}  // namespace expmk::sp
