#include "probes.h"

#include <algorithm>

#include "adders/registry.h"
#include "analysis/dse_cache.h"
#include "analysis/selector.h"
#include "core/adder.h"
#include "core/bitsliced_adder.h"
#include "core/error_model.h"
#include "netlist/bitsliced_sim.h"
#include "netlist/circuits.h"
#include "netlist/fault.h"
#include "stats/bitsliced.h"
#include "stats/histogram.h"
#include "synth/report.h"

namespace perfbench {

namespace core = gear::core;
namespace stats = gear::stats;
namespace analysis = gear::analysis;
namespace netlist = gear::netlist;

namespace {

constexpr int kReps = 7;
constexpr int kLanes = stats::kBitslicedLanes;
constexpr std::size_t kBlocks = 1024;
constexpr std::size_t kDraws = 1 << 16;

/// Results flow here so the probed work cannot be optimized away.
volatile std::uint64_t g_sink = 0;

/// Median wall time of fn() over kReps calls, in ns.
template <typename Fn>
double median_ns(Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < kReps; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    t.push_back(static_cast<double>(now_ns() - t0));
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

/// kBlocks x 64 uniform operand pairs at the workload's first MC config width.
struct Blocks {
  std::vector<std::uint64_t> a, b;
};

Blocks make_blocks(int width, std::uint64_t seed) {
  stats::UniformSource src(width, stats::Rng::substream(seed, "perfbench:probe"));
  Blocks out;
  for (std::size_t i = 0; i < kBlocks * kLanes; ++i) {
    const stats::OperandPair p = src.next();
    out.a.push_back(p.a);
    out.b.push_back(p.b);
  }
  return out;
}

std::vector<core::GeArConfig> every_nth(const std::vector<core::GeArConfig>& v,
                                        std::size_t max_count) {
  const std::size_t step = std::max<std::size_t>(1, v.size() / max_count);
  std::vector<core::GeArConfig> out;
  for (std::size_t i = 0; i < v.size() && out.size() < max_count; i += step) {
    out.push_back(v[i]);
  }
  return out;
}

void probe_stats_core(const LegContext& c, Probes& out) {
  const core::GeArConfig& cfg = c.w.mc_configs.front();
  const int width = cfg.n();
  const Blocks blk = make_blocks(width, c.seed);
  const double blocks = static_cast<double>(kBlocks);

  stats::UniformSource uniform(width, stats::Rng(c.seed));
  const double draw_ns = median_ns([&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kDraws; ++i) acc += uniform.next().a;
    g_sink = acc;
  }) / static_cast<double>(kDraws);
  out.emplace_back("stats.rng_draw_ns_per_pair", draw_ns);

  stats::TraceSource trace = c.in.traces.front();
  out.emplace_back("stats.trace_next_ns_per_pair", median_ns([&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kDraws; ++i) acc += trace.next().a;
    g_sink = acc;
  }) / static_cast<double>(kDraws));

  std::uint64_t rows_g[kLanes];
  std::uint64_t rows_p[kLanes];
  out.emplace_back("stats.pack_gp_ns_per_block", median_ns([&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kBlocks; ++i) {
      acc ^= stats::pack_gp(blk.a.data() + i * kLanes, blk.b.data() + i * kLanes,
                            kLanes, width, rows_g, rows_p)[1];
    }
    g_sink = acc;
  }) / blocks);

  std::copy(blk.a.begin(), blk.a.begin() + kLanes, rows_g);
  out.emplace_back("stats.transpose64_ns", median_ns([&] {
    for (std::size_t i = 0; i < kBlocks; ++i) stats::transpose64(rows_g);
    g_sink = rows_g[1];
  }) / blocks);

  // The keys as the MC driver folds them: one weighted add of the block's
  // exact lanes, then one add per erroneous lane.
  const core::GeArAdder scalar(cfg);
  std::vector<std::uint64_t> zeros(kBlocks, 0);
  std::vector<std::vector<std::int64_t>> errors(kBlocks);
  for (std::size_t i = 0; i < blk.a.size(); ++i) {
    const std::int64_t key =
        static_cast<std::int64_t>(scalar.add_value(blk.a[i], blk.b[i])) -
        static_cast<std::int64_t>(blk.a[i] + blk.b[i]);
    if (key == 0) {
      ++zeros[i / kLanes];
    } else {
      errors[i / kLanes].push_back(key);
    }
  }
  const double fold_ns = median_ns([&] {
    stats::SparseHistogram hist;
    for (std::size_t i = 0; i < kBlocks; ++i) {
      if (zeros[i] > 0) hist.add(0, zeros[i]);
      for (const std::int64_t k : errors[i]) hist.add(k);
    }
    g_sink = hist.total();
  }) / static_cast<double>(blk.a.size());
  out.emplace_back("stats.fold_ns_per_trial", fold_ns);

  const core::BitslicedGearAdder bitsliced(cfg);
  core::BitslicedBatch batch;
  const double eval_ns = median_ns([&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kBlocks; ++i) {
      bitsliced.eval(blk.a.data() + i * kLanes, blk.b.data() + i * kLanes, kLanes,
                     0, 0, batch, true);
      acc ^= batch.error;
    }
    g_sink = acc;
  }) / blocks;
  out.emplace_back("core.eval_ns_per_block", eval_ns);

  std::vector<std::uint64_t> sums(kLanes);
  out.emplace_back("core.add_batch_ns_per_block", median_ns([&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kBlocks; ++i) {
      bitsliced.add_batch(blk.a.data() + i * kLanes, blk.b.data() + i * kLanes,
                          sums.data(), kLanes, 0);
      acc ^= sums[3];
    }
    g_sink = acc;
  }) / blocks);

  // The MC driver's own cost: what a trial costs beyond drawing its pair,
  // its share of a 64-lane eval, and folding its key.
  const std::uint64_t trials = 1 << 18;
  const double mc_ns = median_ns([&] {
    stats::Rng rng(c.seed);
    g_sink = core::mc_error_distribution(cfg, trials, rng).total();
  }) / static_cast<double>(trials);
  out.emplace_back("core.mc_driver_share",
                   1.0 - (draw_ns + eval_ns / kLanes + fold_ns) / mc_ns);

  const auto candidates = core::GeArConfig::enumerate(c.w.hetero.n);
  const double per_candidate_us = 1e-3 / static_cast<double>(candidates.size());
  out.emplace_back("core.exact_metrics_us", median_ns([&] {
    double acc = 0;
    for (const auto& cand : candidates) acc += core::exact_error_metrics(cand).med;
    g_sink = static_cast<std::uint64_t>(acc);
  }) * per_candidate_us);
  out.emplace_back("core.paper_error_us", median_ns([&] {
    double acc = 0;
    for (const auto& cand : candidates) acc += core::paper_error_probability(cand);
    g_sink = static_cast<std::uint64_t>(acc * 1e6);
  }) * per_candidate_us);
}

void probe_adders(const LegContext& c, Probes& out) {
  // Vertically adjacent pixel pairs of the frame, fed 64 lanes per call
  // as the batch kernels feed them.
  const std::size_t n = kBlocks * kLanes / 16;
  const auto& px = c.in.frame.pixels();
  const std::size_t stride = static_cast<std::size_t>(c.in.frame.width());
  std::vector<std::uint64_t> a(n), b(n), sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = px[i];
    b[i] = px[i + stride];
  }
  const gear::adders::AdderPtr rca =
      gear::adders::make_adder("rca:" + std::to_string(c.w.width));
  std::vector<std::pair<std::string, const gear::adders::ApproxAdder*>> adders;
  for (const NamedAdder& na : c.in.adders) adders.emplace_back(na.family, na.adder.get());
  adders.emplace_back("rca", rca.get());
  for (const auto& [family, adder] : adders) {
    out.emplace_back("adders.add_batch_ns_per_add." + family, median_ns([&] {
      for (std::size_t o = 0; o < n; o += kLanes) {
        adder->add_batch(a.data() + o, b.data() + o, sum.data() + o, kLanes);
      }
      g_sink = sum[7];
    }) / static_cast<double>(n));
  }
}

void probe_stream(const LegContext& c, Probes& out) {
  std::vector<std::uint64_t> sums(c.in.stream_ops.size());
  const double guarded = median_ns([&] { guarded_stream(c, sums); });
  const double plain = median_ns([&] {
    const auto& ops = c.in.stream_ops;
    for (int pass = 0; pass < c.w.stream_passes; ++pass) {
      for (std::size_t off = 0; off < ops.size(); off += c.w.stream_slice) {
        const std::size_t n = std::min(c.w.stream_slice, ops.size() - off);
        c.in.unguarded->run_with_sums(ops.data() + off, n, sums.data() + off);
      }
    }
  });
  out.emplace_back("apps.stream_guard_overhead", guarded / plain);
}

void probe_netlist(const LegContext& c, Probes& out) {
  const auto candidates = every_nth(core::GeArConfig::enumerate(c.w.hetero.n), 24);
  const double per_candidate_ms = 1e-6 / static_cast<double>(candidates.size());
  std::vector<netlist::Netlist> built;
  out.emplace_back("netlist.build_gear_ms", median_ns([&] {
    built.clear();
    for (const auto& cand : candidates) built.push_back(netlist::build_gear(cand));
  }) * per_candidate_ms);
  out.emplace_back("synth.synthesize_ms", median_ns([&] {
    int acc = 0;
    for (const auto& nl : built) acc += gear::synth::synthesize(nl).area_luts;
    g_sink = static_cast<std::uint64_t>(acc);
  }) * per_candidate_ms);

  const netlist::Netlist& nl = c.in.winner_netlists.front();
  constexpr std::size_t kSimBlocks = 32;
  stats::Rng rng = stats::Rng::substream(c.seed, "perfbench:netsim");
  const auto vectors = netlist::random_port_vectors(nl, kSimBlocks * kLanes, rng);
  const auto faults = netlist::enumerate_transient_faults(nl);
  netlist::BitslicedNetSim sim(nl);
  std::vector<double> load_ns, run_ns;
  for (int rep = 0; rep < kReps; ++rep) {
    std::int64_t load = 0, run = 0;
    for (std::size_t blk = 0; blk < kSimBlocks; ++blk) {
      sim.clear();
      std::int64_t t0 = now_ns();
      for (int l = 0; l < kLanes; ++l) {
        sim.load_lane(l, vectors[blk * kLanes + static_cast<std::size_t>(l)]);
      }
      load += now_ns() - t0;
      for (int l = 0; l < kLanes; ++l) {
        sim.set_fault(l, faults[(blk * kLanes + static_cast<std::size_t>(l)) %
                                faults.size()]);
      }
      t0 = now_ns();
      sim.run(false);
      sim.run(true);
      run += now_ns() - t0;
    }
    load_ns.push_back(static_cast<double>(load));
    run_ns.push_back(static_cast<double>(run));
  }
  std::sort(load_ns.begin(), load_ns.end());
  std::sort(run_ns.begin(), run_ns.end());
  out.emplace_back("netlist.load_lane_ns_per_vector",
                   load_ns[kReps / 2] / static_cast<double>(kSimBlocks * kLanes));
  out.emplace_back("netlist.sim_run_ns_per_block",
                   run_ns[kReps / 2] / static_cast<double>(kSimBlocks));
}

void probe_analysis(const LegContext& c, Probes& out) {
  analysis::DseCache cache;
  const analysis::SweepContext ctx{&c.exec, &cache};
  auto rank_both = [&] {
    std::size_t acc = 0;
    for (const bool detection : {false, true}) {
      analysis::SelectionRequest req;
      req.n = c.w.hetero.n;
      req.max_error_probability = 1.0;
      req.with_detection = detection;
      acc += analysis::rank_configs(req, ctx).size();
    }
    g_sink = acc;
  };
  rank_both();  // fills the cache
  out.emplace_back("analysis.rank_warm_ms", median_ns(rank_both) * 1e-6);

  const analysis::HeteroSpace& space = *c.in.space;
  const std::uint64_t stride = space.size() / c.w.hetero_budget;
  constexpr std::uint64_t kDecodes = 4096;
  std::vector<core::GeArConfig> decoded;
  out.emplace_back("analysis.hetero_decode_ns", median_ns([&] {
    decoded.clear();
    for (std::uint64_t i = 0; i < kDecodes; ++i) decoded.push_back(space.decode(i * stride));
  }) / static_cast<double>(kDecodes));
  const gear::synth::DelayModel model = gear::synth::DelayModel::virtex6();
  out.emplace_back("analysis.tier_b_bound_ns", median_ns([&] {
    int acc = 0;
    for (const auto& cfg : decoded) {
      acc += analysis::tier_b_lower_bound(cfg, false, model).area_luts;
    }
    g_sink = static_cast<std::uint64_t>(acc);
  }) / static_cast<double>(kDecodes));
}

}  // namespace

Probes run_probes(const LegContext& c) {
  Probes out;
  probe_stats_core(c, out);
  probe_adders(c, out);
  probe_stream(c, out);
  probe_netlist(c, out);
  probe_analysis(c, out);
  return out;
}

}  // namespace perfbench
