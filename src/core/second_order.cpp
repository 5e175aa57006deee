#include "core/second_order.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "exp/level_parallel.hpp"
#include "graph/csr.hpp"
#include "graph/level_sets.hpp"

namespace expmk::core {

namespace {

/// Pair-sweep block width: sources processed per longest_from_block edge
/// pass. 8 lanes = one 64-byte cache line of doubles per vertex in the
/// lane matrix, and enough independent arithmetic for the compiler to
/// vectorize the inner pair loop.
constexpr std::uint32_t kSecondOrderBlock = 8;

/// O(V) serial prefix shared verbatim by the serial and level-parallel
/// drivers: per-task failure mass l_i (het), its sum L / the uniform sum
/// A, the single-failure makespans d(G_i), and the first-order correction.
struct SoPrefix {
  double A = 0.0;              // uniform: sum a_i
  double L = 0.0;              // heterogeneous: sum l_i
  double fo_correction = 0.0;  // first-order correction for reporting
};

EXPMK_NOALLOC SoPrefix so_prefix(const graph::CsrDag& csr, bool het, double d,
                                 std::span<const double> rates_csr,
                                 std::span<const double> top,
                                 std::span<const double> bottom,
                                 std::span<double> d_single,
                                 std::span<double> l) {
  const std::size_t n = csr.task_count();
  const std::span<const double> w = csr.weights();
  SoPrefix out;
  // l_i = lambda_i a_i: the per-task first-order failure mass. L replaces
  // the uniform lambda * A everywhere in the heterogeneous expansion.
  if (het) {
    for (std::uint32_t i = 0; i < n; ++i) {
      l[i] = rates_csr[i] * w[i];
      out.L += l[i];
    }
  } else {
    for (const double a : w) out.A += a;
  }
  // d(G_i) for every i, plus the first-order correction for reporting.
  for (std::uint32_t i = 0; i < n; ++i) {
    const double thr2 = top[i] + bottom[i] + w[i];
    d_single[i] = std::max(d, thr2);
    out.fo_correction += (het ? l[i] : w[i]) * (d_single[i] - d);
  }
  return out;
}

/// One pair-sweep block: sum_{j>i} m_i m_j d(G_ij) for the
/// kSecondOrderBlock (or fewer, at the end) consecutive sources starting
/// at i0, each lane's partial into acc[lane]. One graph::longest_from_block
/// edge pass serves the whole block (edge traffic divided by the block
/// width), and the inner j-loop walks the vertex-major lane matrix — one
/// cache line per vertex covers every lane, and the per-lane body is
/// branch-free, independent arithmetic the compiler can vectorize across
/// lanes. Because positions are topologically renumbered, j at a later
/// position can NEVER reach i, so the forward suffix sweep covers every
/// unordered pair.
///
/// Numerics: each lane accumulates its own partial sum in the exact
/// per-source j-ascending order of the one-source-at-a-time sweep; the
/// caller then folds the partials into pair_sum in source order. That
/// re-associates the GLOBAL sum only (one fixed, documented order — part
/// of the same one-time re-baseline as the kernel layer's stable merge).
/// The unreachable-pair guard is arithmetic here: dist -inf propagates
/// through the cross term and loses the max, bit-identically to the
/// scalar `!= -inf` branch for the finite levels/weights at hand.
///
/// Blocks touch only (read-only inputs, their own dist scratch, their own
/// acc) — which is what lets the level-parallel driver run them on any
/// worker in any order with bit-identical results.
EXPMK_NOALLOC void so_block(const graph::CsrDag& csr, bool het,
                            std::span<const double> l,
                            std::span<const double> top,
                            std::span<const double> bottom,
                            std::span<const double> d_single,
                            std::uint32_t i0, std::uint32_t nb,
                            std::span<double> dist,
                            double acc[kSecondOrderBlock]) {
  const std::size_t n = csr.task_count();
  const std::span<const double> w = csr.weights();
  longest_from_block(csr, i0, nb, w, dist);
  double m_i[kSecondOrderBlock];
  for (std::uint32_t ln = 0; ln < nb; ++ln) {
    m_i[ln] = het ? l[i0 + ln] : w[i0 + ln];
  }
  // Head: j inside the block — only lanes with source < j are live.
  const std::uint32_t head_end =
      std::min<std::uint32_t>(i0 + nb, static_cast<std::uint32_t>(n));
  for (std::uint32_t j = i0 + 1; j < head_end; ++j) {
    for (std::uint32_t ln = 0; ln < j - i0; ++ln) {
      const std::uint32_t i = i0 + ln;
      double dij = std::max(d_single[i], d_single[j]);
      const double cross =
          top[i] + dist[j * nb + ln] + w[i] + w[j] + (bottom[j] - w[j]);
      dij = std::max(dij, cross);
      acc[ln] += (m_i[ln] * (het ? l[j] : w[j])) * dij;
    }
  }
  // Tail: every lane is live; no masks, no branches. Per-lane constants
  // are gathered into dense block arrays so the lane loop is pure
  // contiguous elementwise arithmetic; the full-width case runs with a
  // compile-time lane count so it vectorizes.
  double ds_i[kSecondOrderBlock];
  double top_i[kSecondOrderBlock];
  double w_i[kSecondOrderBlock];
  for (std::uint32_t ln = 0; ln < nb; ++ln) {
    ds_i[ln] = d_single[i0 + ln];
    top_i[ln] = top[i0 + ln];
    w_i[ln] = w[i0 + ln];
  }
  auto tail_sweep = [&](auto width, std::uint32_t lanes) {
    constexpr std::uint32_t kW = decltype(width)::value;
    const std::uint32_t nl = kW != 0 ? kW : lanes;
    for (std::uint32_t j = head_end; j < n; ++j) {
      const double dsj = d_single[j];
      const double wj = w[j];
      const double tailj = bottom[j] - wj;
      const double mj = het ? l[j] : wj;
      const double* dj = &dist[j * nl];
      for (std::uint32_t ln = 0; ln < nl; ++ln) {
        const double a = ds_i[ln];
        double dij = a > dsj ? a : dsj;
        const double cross = top_i[ln] + dj[ln] + w_i[ln] + wj + tailj;
        dij = cross > dij ? cross : dij;
        acc[ln] += (m_i[ln] * mj) * dij;
      }
    }
  };
  if (nb == kSecondOrderBlock) {
    tail_sweep(std::integral_constant<std::uint32_t, kSecondOrderBlock>{}, nb);
  } else {
    tail_sweep(std::integral_constant<std::uint32_t, 0>{}, nb);
  }
}

/// Assembles the expansion in the header comment from the sweep products —
/// serial O(V), shared verbatim by both drivers.
EXPMK_NOALLOC SecondOrderResult so_assemble(
    const graph::CsrDag& csr, RetryModel model_kind, double lambda, bool het,
    std::span<const double> l, std::span<const double> top,
    std::span<const double> bottom, std::span<const double> d_single,
    double d, const SoPrefix& pre, double pair_sum) {
  const std::size_t n = csr.task_count();
  const std::span<const double> w = csr.weights();
  const double A = pre.A;
  const double L = pre.L;
  double e2 = het ? d * (1.0 - L + L * L / 2.0)
                  : d * (1.0 - lambda * A + lambda * lambda * A * A / 2.0);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (het) {
      double coeff1;  // second-order coefficient on d(G_i)
      switch (model_kind) {
        case RetryModel::TwoState:
          coeff1 = l[i] * (l[i] / 2.0 - L);
          break;
        case RetryModel::Geometric:
          coeff1 = -l[i] * (L + l[i] / 2.0);
          break;
        default:
          coeff1 = 0.0;
      }
      e2 += (l[i] + coeff1) * d_single[i];
    } else {
      const double a = w[i];
      double coeff1;  // coefficient of lambda^2 on d(G_i)
      switch (model_kind) {
        case RetryModel::TwoState:
          coeff1 = a * (a / 2.0 - A);
          break;
        case RetryModel::Geometric:
          coeff1 = -a * (A + a / 2.0);
          break;
        default:
          coeff1 = 0.0;
      }
      e2 += (lambda * a + lambda * lambda * coeff1) * d_single[i];
    }
  }
  e2 += het ? pair_sum : lambda * lambda * pair_sum;

  if (model_kind == RetryModel::Geometric) {
    // Triple execution of a single task: weight 3 a_i with prob
    // (lambda_i a_i)^2 + O(lambda^3).
    double triple = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const double thr3 = top[i] + bottom[i] + 2.0 * w[i];
      triple += (het ? l[i] * l[i] : w[i] * w[i]) * std::max(d, thr3);
    }
    e2 += het ? triple : lambda * lambda * triple;
  }

  SecondOrderResult out;
  out.critical_path = d;
  out.first_order =
      het ? d + pre.fo_correction : d + lambda * pre.fo_correction;
  out.expected_makespan = e2;
  return out;
}

}  // namespace

EXPMK_NOALLOC SecondOrderResult second_order(const scenario::Scenario& sc,
                               exp::Workspace& ws) {
  const exp::Workspace::Frame frame(ws);
  const graph::CsrDag& csr = sc.csr();
  const std::size_t n = csr.task_count();
  // Uniform scenarios factor lambda out (sum a_i, scale by lambda at the
  // end — the arithmetic the golden sweep artifact pins); heterogeneous
  // ones run the generalized expansion with l_i = lambda_i a_i.
  const bool het = sc.heterogeneous();
  const double lambda = het ? 0.0 : sc.uniform_model().lambda;
  const std::span<const double> rates_csr =
      het ? sc.rates_csr() : std::span<const double>{};
  const std::span<double> top = ws.doubles(n);
  const std::span<double> bottom = ws.doubles(n);
  const std::span<double> d_single = ws.doubles(n);
  // The blocked sweep's lane matrix: one row of kSecondOrderBlock per task.
  const std::span<double> dist = ws.doubles(n * kSecondOrderBlock);
  const std::span<double> l = het ? ws.doubles(n) : std::span<double>{};

  // Levels over the renumbered positions (one forward, one backward pass).
  const double d = graph::compute_levels(csr, csr.weights(), top, bottom);
  const SoPrefix pre =
      so_prefix(csr, het, d, rates_csr, top, bottom, d_single, l);

  // Pair terms sum_{i<j} m_i m_j d(G_ij) (m = a uniform, l het), swept in
  // blocks of kSecondOrderBlock consecutive sources (see so_block); the
  // per-lane partials fold into pair_sum in source order.
  double pair_sum = 0.0;
  for (std::uint32_t i0 = 0; i0 < n; i0 += kSecondOrderBlock) {
    const std::uint32_t nb = std::min<std::uint32_t>(
        kSecondOrderBlock, static_cast<std::uint32_t>(n) - i0);
    double acc[kSecondOrderBlock] = {};
    so_block(csr, het, l, top, bottom, d_single, i0, nb, dist, acc);
    for (std::uint32_t ln = 0; ln < nb; ++ln) pair_sum += acc[ln];
  }

  return so_assemble(csr, sc.retry(), lambda, het, l, top, bottom, d_single,
                     d, pre, pair_sum);
}

SecondOrderResult second_order(const scenario::Scenario& sc,
                               exp::Workspace& ws, std::size_t workers) {
  if (workers <= 1) return second_order(sc, ws);
  const exp::Workspace::Frame frame(ws);
  const graph::CsrDag& csr = sc.csr();
  const std::size_t n = csr.task_count();
  const bool het = sc.heterogeneous();
  const double lambda = het ? 0.0 : sc.uniform_model().lambda;
  const std::span<const double> rates_csr =
      het ? sc.rates_csr() : std::span<const double>{};
  const std::span<double> top = ws.doubles(n);
  const std::span<double> bottom = ws.doubles(n);
  const std::span<double> d_single = ws.doubles(n);
  const std::span<double> l =
      het ? ws.doubles(n) : std::span<double>{};
  const std::span<double> chunk_scratch =
      ws.doubles(exp::lp::fixed_chunk_count(n));

  const double d = exp::lp::compute_levels_parallel(
      csr, csr.weights(), sc.level_sets(), top, bottom, chunk_scratch,
      workers);
  const SoPrefix pre =
      so_prefix(csr, het, d, rates_csr, top, bottom, d_single, l);

  // Pair sweep: blocks fan out across workers — each is a full
  // longest_from_block edge pass, so one block is already a coarse work
  // unit. Every worker leases its own lane matrix from its thread-local
  // pooled workspace; the per-lane partials land in acc_all slots indexed
  // by (block, lane) and fold here in exactly the serial driver's
  // source order, so the sum is bit-identical for any worker count.
  const std::size_t nblocks =
      (n + kSecondOrderBlock - 1) / kSecondOrderBlock;
  const std::span<double> acc_all = ws.doubles(nblocks * kSecondOrderBlock);
  exp::lp::run_chunks(workers, nblocks, [&](std::size_t b) {
    exp::Workspace& tws = exp::Workspace::local();
    const exp::Workspace::Frame tframe(tws);
    const std::span<double> dist = tws.doubles(n * kSecondOrderBlock);
    const auto i0 = static_cast<std::uint32_t>(b * kSecondOrderBlock);
    const std::uint32_t nb = std::min<std::uint32_t>(
        kSecondOrderBlock, static_cast<std::uint32_t>(n) - i0);
    double acc[kSecondOrderBlock] = {};
    so_block(csr, het, l, top, bottom, d_single, i0, nb, dist, acc);
    for (std::uint32_t ln = 0; ln < nb; ++ln) {
      acc_all[b * kSecondOrderBlock + ln] = acc[ln];
    }
  });
  double pair_sum = 0.0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::uint32_t nb = std::min<std::uint32_t>(
        kSecondOrderBlock,
        static_cast<std::uint32_t>(n - b * kSecondOrderBlock));
    for (std::uint32_t ln = 0; ln < nb; ++ln) {
      pair_sum += acc_all[b * kSecondOrderBlock + ln];
    }
  }

  return so_assemble(csr, sc.retry(), lambda, het, l, top, bottom, d_single,
                     d, pre, pair_sum);
}

}  // namespace expmk::core
