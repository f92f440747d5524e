#include "workload.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "adders/gear_adapter.h"
#include "adders/registry.h"
#include "apps/generate.h"
#include "apps/trace.h"
#include "core/correction.h"
#include "netlist/circuits.h"
#include "spans.h"
#include "stats/rng.h"

namespace perfbench {

using gear::core::GeArConfig;

namespace {

GeArConfig relaxed(int n, int r, int p) {
  auto cfg = GeArConfig::make_relaxed(n, r, p);
  if (!cfg) throw std::invalid_argument("perfbench: invalid relaxed config");
  return *cfg;
}

gear::analysis::HeteroSpaceSpec hetero_spec(int n, int max_rp, int max_l,
                                            int max_k) {
  gear::analysis::HeteroSpaceSpec spec;
  spec.n = n;
  spec.max_l0 = n - 1;
  spec.max_r = max_rp;
  spec.max_p = max_rp;
  spec.max_l = max_l;
  spec.max_k = max_k;
  return spec;
}

/// A watchdog that trips on a fraction of windows: the budget sits a
/// little above the expected correction stalls per window, so the
/// guarded path both absorbs whole blocks and replays trips per op.
gear::core::DegradationPolicy stream_policy(std::uint64_t stall_budget) {
  gear::core::DegradationPolicy policy;
  policy.window = 256;
  policy.stall_budget = stall_budget;
  policy.cooldown_windows = 2;
  return policy;
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace

void Digest::add(double d) { add(std::bit_cast<std::uint64_t>(d)); }

std::optional<Workload> make_workload(const std::string& name) {
  if (name == "narrow") {
    return Workload{
        .name = name,
        .width = 16,
        .mc_configs = {GeArConfig::must(16, 4, 4), relaxed(20, 6, 4),
                       GeArConfig::must_custom(16, 4, {{4, 2}, {4, 4}, {4, 6}})},
        .mc_trials = 1 << 19,
        .replay_passes = 8,
        .stream_cfg = GeArConfig::must(16, 4, 4),
        .stream_policy = stream_policy(20),
        .stream_ops = 1 << 20,
        .stream_slice = 1024,
        .stream_passes = 4,
        .exact_ladder = {GeArConfig::must(20, 1, 1), GeArConfig::must(22, 1, 1),
                         GeArConfig::must(24, 1, 2), GeArConfig::must(24, 1, 1)},
        .image_cfg = GeArConfig::must(16, 4, 4),
        .custom_cfg = GeArConfig::must_custom(16, 4, {{4, 2}, {4, 4}, {4, 6}}),
        .zoo_spec = "cesa:16:4:4",
        .frame = 512,
        .sad_crop = 128,
        .trace_frame = 128,
        .integral_passes = 8,
        .rank_passes = 8,
        .hetero = hetero_spec(16, 6, 10, 6),
        .hetero_budget = 1 << 14,
        .fault_samples = 1 << 15,
    };
  }
  if (name == "wide") {
    return Workload{
        .name = name,
        .width = 32,
        .mc_configs = {GeArConfig::must(32, 8, 8), GeArConfig::must(48, 8, 16),
                       GeArConfig::must_custom(32, 8, {{8, 4}, {8, 8}, {8, 12}})},
        .mc_trials = 1 << 19,
        .replay_passes = 8,
        .stream_cfg = GeArConfig::must(32, 4, 4),
        .stream_policy = stream_policy(40),
        .stream_ops = 1 << 20,
        .stream_slice = 1024,
        .stream_passes = 4,
        .exact_ladder = {GeArConfig::must(24, 1, 1), GeArConfig::must(32, 2, 2),
                         GeArConfig::must(32, 1, 2), GeArConfig::must(26, 1, 1)},
        .image_cfg = GeArConfig::must(32, 8, 8),
        .custom_cfg = GeArConfig::must_custom(32, 8, {{8, 4}, {8, 8}, {8, 12}}),
        .zoo_spec = "cesa:32:8:8",
        .frame = 512,
        .sad_crop = 128,
        .trace_frame = 128,
        .integral_passes = 8,
        .rank_passes = 2,
        .hetero = hetero_spec(32, 8, 12, 8),
        .hetero_budget = 1 << 14,
        .fault_samples = 1 << 15,
    };
  }
  return std::nullopt;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  namespace apps = gear::apps;
  namespace stats = gear::stats;
  Inputs in;

  stats::Rng frame_rng = stats::Rng::substream(seed, "perfbench:frame");
  in.frame = apps::smoothed_noise_image(w.frame, w.frame, frame_rng, 2);
  in.sad_ref = apps::Image(w.sad_crop, w.sad_crop);
  for (int y = 0; y < w.sad_crop; ++y) {
    for (int x = 0; x < w.sad_crop; ++x) in.sad_ref.set(x, y, in.frame.at(x, y));
  }
  stats::Rng shift_rng = stats::Rng::substream(seed, "perfbench:shift");
  in.sad_cand = apps::shifted_image(in.sad_ref, 2, 1, 2, shift_rng);

  std::int64_t t0 = now_ns();
  for (const std::string& kernel : kTraceKernels) {
    in.traces.push_back(apps::capture_kernel_trace(kernel, w.width, w.trace_frame,
                                                   w.trace_frame, seed));
  }
  in.trace_capture_s = seconds_since(t0);
  t0 = now_ns();
  for (const stats::TraceSource& trace : in.traces) {
    stats::TraceSource replay = trace;
    in.models.push_back(stats::OperandModel::from_source(replay, replay.size()));
  }
  in.operand_model_s = seconds_since(t0);

  stats::UniformSource stream_src(w.stream_cfg.n(),
                                  stats::Rng::substream(seed, "perfbench:stream"));
  in.stream_ops.resize(w.stream_ops);
  stream_src.fill(in.stream_ops.data(), in.stream_ops.size());
  const std::uint64_t all = gear::core::Corrector::all_enabled();
  in.guarded = std::make_unique<apps::StreamAdderEngine>(w.stream_cfg, all,
                                                         w.stream_policy);
  in.unguarded = std::make_unique<apps::StreamAdderEngine>(w.stream_cfg, all);

  in.adders.push_back({"gear", std::make_unique<gear::adders::GearAdapter>(w.image_cfg)});
  in.adders.push_back(
      {"gear_ecc", std::make_unique<gear::adders::GearCorrectedAdapter>(w.image_cfg, all)});
  in.adders.push_back(
      {"gear_custom", std::make_unique<gear::adders::GearAdapter>(w.custom_cfg)});
  in.adders.push_back({"cesa", gear::adders::make_adder(w.zoo_spec)});

  in.space = std::make_unique<gear::analysis::HeteroSpace>(w.hetero);
  // Fault-campaign targets: the fastest, smallest and most accurate
  // layouts of a small exploration's Pareto front, with detection logic.
  gear::analysis::HeteroExploreOptions opts;
  opts.budget = 1024;
  const auto front = gear::analysis::explore_hetero(*in.space, opts).front;
  if (front.empty()) throw std::runtime_error("perfbench: empty Pareto front");
  using Cand = gear::analysis::HeteroCandidate;
  const Cand* picks[] = {
      &*std::min_element(front.begin(), front.end(),
                         [](const Cand& a, const Cand& b) { return a.delay_ns < b.delay_ns; }),
      &*std::min_element(front.begin(), front.end(),
                         [](const Cand& a, const Cand& b) { return a.area_luts < b.area_luts; }),
      &*std::min_element(front.begin(), front.end(),
                         [](const Cand& a, const Cand& b) { return a.error < b.error; }),
  };
  std::vector<std::uint64_t> seen;
  for (const Cand* c : picks) {
    if (std::find(seen.begin(), seen.end(), c->index) != seen.end()) continue;
    seen.push_back(c->index);
    in.winners.push_back(in.space->decode(c->index));
    in.winner_netlists.push_back(gear::netlist::build_gear(in.winners.back()));
  }
  return in;
}

}  // namespace perfbench
