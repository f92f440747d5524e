#include "checks.h"

#include <algorithm>
#include <cmath>

#include "analysis/dse_cache.h"
#include "analysis/selector.h"
#include "analysis/vulnerability.h"
#include "apps/batch_kernel.h"
#include "apps/integral.h"
#include "apps/lpf.h"
#include "apps/sad.h"
#include "apps/sobel.h"
#include "core/correction.h"
#include "core/error_model.h"
#include "stats/pmf.h"

namespace perfbench {

namespace core = gear::core;
namespace apps = gear::apps;
namespace stats = gear::stats;
namespace analysis = gear::analysis;

namespace {

/// Matches the conditioned-engine contract pinned by the test suite.
constexpr double kPmfTolerance = 1e-12;
constexpr std::uint64_t kScalarPrefixTrials = 1 << 14;
constexpr std::uint64_t kScalarFaultSamples = 1 << 10;

void expect(std::vector<Check>& out, std::string name, bool ok,
            std::string detail) {
  out.push_back({std::move(name), ok, ok ? std::string() : std::move(detail)});
}

double max_abs_diff(const stats::Pmf& a, const stats::Pmf& b) {
  double worst = 0.0;
  for (const auto& [key, mass] : a.entries()) {
    worst = std::max(worst, std::abs(mass - b.mass(key)));
  }
  for (const auto& [key, mass] : b.entries()) {
    worst = std::max(worst, std::abs(mass - a.mass(key)));
  }
  return worst;
}

void check_mc_scalar(const LegContext& c, std::vector<Check>& out) {
  for (std::size_t i = 0; i < c.w.mc_configs.size(); ++i) {
    const core::GeArConfig& cfg = c.w.mc_configs[i];
    const std::string label = "perfbench:mc:" + std::to_string(i);
    stats::Rng fast = stats::Rng::substream(c.seed, label);
    stats::Rng slow = stats::Rng::substream(c.seed, label);
    const bool dist_ok =
        core::mc_error_distribution(cfg, kScalarPrefixTrials, fast).entries() ==
        core::mc_error_distribution(cfg, kScalarPrefixTrials, slow,
                                    core::McKernel::kScalar)
            .entries();
    const bool detect_ok =
        core::mc_detect_count_distribution(cfg, kScalarPrefixTrials, fast) ==
        core::mc_detect_count_distribution(cfg, kScalarPrefixTrials, slow,
                                           core::McKernel::kScalar);
    expect(out, "mc_scalar_prefix." + cfg.name(), dist_ok && detect_ok,
           "bitsliced MC differs from McKernel::kScalar");
  }
}

void check_exact(const LegContext& c, std::vector<Check>& out) {
  for (const core::GeArConfig& cfg : c.w.exact_ladder) {
    const stats::Pmf pmf = core::exact_error_distribution(cfg);
    const double error_mass = pmf.total_mass() - pmf.mass(0);
    const double diff = std::abs(error_mass - core::exact_error_probability(cfg));
    const bool ok = diff <= kPmfTolerance &&
                    std::abs(pmf.total_mass() - 1.0) <= kPmfTolerance;
    expect(out, "exact_mass." + cfg.name(), ok,
           "PMF error mass differs from exact_error_probability by " +
               std::to_string(diff));
  }
  for (const core::GeArConfig& cfg : c.w.mc_configs) {
    for (std::size_t t = 0; t < c.in.traces.size(); ++t) {
      const stats::Pmf exact = core::exact_error_distribution(cfg, c.in.models[t]);
      const stats::Pmf replay = stats::Pmf::from_histogram(
          core::trace_error_distribution(cfg, c.in.traces[t]));
      const double diff = max_abs_diff(exact, replay);
      expect(out, "conditioned_vs_replay." + cfg.name() + "." + kTraceKernels[t],
             diff <= kPmfTolerance,
             "conditioned PMF differs from trace replay by " + std::to_string(diff));
    }
  }
}

void check_stream(const LegContext& c, std::vector<Check>& out) {
  std::vector<std::uint64_t> sums;
  guarded_stream(c, sums);
  const core::Corrector corrector(c.w.stream_cfg, core::Corrector::all_enabled());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < c.in.stream_ops.size(); ++i) {
    const stats::OperandPair& op = c.in.stream_ops[i];
    if (corrector.add(op.a, op.b).sum != sums[i]) ++bad;
  }
  expect(out, "stream_vs_corrector", bad == 0,
         std::to_string(bad) + " guarded sums differ from Corrector::add");
}

void check_kernels(const LegContext& c, std::vector<Check>& out) {
  const apps::Image& img = c.in.frame;
  for (const NamedAdder& na : c.in.adders) {
    const gear::adders::ApproxAdder& a = *na.adder;
    const std::string sfx = "." + na.family;
    expect(out, "batch_vs_scalar.lpf3x3" + sfx,
           apps::lpf3x3_batch(img, a) == apps::lpf3x3(img, a), "outputs differ");
    expect(out, "batch_vs_scalar.lpf_binomial" + sfx,
           apps::lpf_binomial_batch(img, a) == apps::lpf_binomial(img, a),
           "outputs differ");
    expect(out, "batch_vs_scalar.sobel" + sfx,
           apps::sobel_batch(img, a) == apps::sobel(img, a), "outputs differ");
    expect(out, "batch_vs_scalar.integral" + sfx,
           apps::row_integral_batch(img, a) == apps::row_integral(img, a),
           "outputs differ");
    expect(out, "batch_vs_scalar.sad" + sfx,
           apps::sad_match_rate_batch(c.in.sad_ref, c.in.sad_cand, 16, 16, 3, a) ==
               apps::sad_match_rate(c.in.sad_ref, c.in.sad_cand, 16, 16, 3, a),
           "match rates differ");
  }
}

bool same_ranking(const std::vector<analysis::SelectedConfig>& a,
                  const std::vector<analysis::SelectedConfig>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const analysis::SelectedConfig& x,
                       const analysis::SelectedConfig& y) {
                      return x.cfg == y.cfg && x.area_luts == y.area_luts &&
                             x.delay_ns == y.delay_ns && x.score == y.score &&
                             x.error_probability == y.error_probability &&
                             x.exact_med == y.exact_med;
                    });
}

void check_rank(const LegContext& c, std::vector<Check>& out) {
  for (const bool detection : {false, true}) {
    analysis::SelectionRequest req;
    req.n = c.w.hetero.n;
    req.max_error_probability = 1.0;
    req.with_detection = detection;
    analysis::DseCache cache;
    const analysis::SweepContext ctx{&c.exec, &cache};
    const auto cold = analysis::rank_configs(req, ctx);
    const auto warm = analysis::rank_configs(req, ctx);
    const auto uncached = analysis::rank_configs(req);
    expect(out, detection ? "rank_cached_vs_uncached.detect"
                          : "rank_cached_vs_uncached.plain",
           same_ranking(cold, uncached) && same_ranking(warm, uncached),
           "cached ranking differs from the serial uncached one");
  }
}

void check_fault(const LegContext& c, std::vector<Check>& out) {
  for (std::size_t i = 0; i < c.in.winner_netlists.size(); ++i) {
    analysis::FaultCampaignOptions opts;
    opts.samples = kScalarFaultSamples;
    opts.master_seed = stats::fnv1a("perfbench:fault-check") ^ c.seed;
    opts.include_stuck = true;
    opts.use_bitsliced = true;
    const auto fast = analysis::run_fault_campaign(c.in.winner_netlists[i], opts);
    opts.use_bitsliced = false;
    const auto slow = analysis::run_fault_campaign(c.in.winner_netlists[i], opts);
    const auto& f = fast.totals;
    const auto& s = slow.totals;
    const bool ok = f.injections == s.injections && f.masked == s.masked &&
                    f.false_alarm == s.false_alarm && f.detected == s.detected &&
                    f.sdc == s.sdc &&
                    fast.error_magnitude.entries() == slow.error_magnitude.entries();
    expect(out, "fault_bitsliced_vs_scalar." + c.in.winners[i].name(), ok,
           "bitsliced campaign tallies differ from the scalar campaign");
  }
}

}  // namespace

std::vector<Check> run_referees(const LegContext& c) {
  std::vector<Check> out;
  check_mc_scalar(c, out);
  check_exact(c, out);
  check_stream(c, out);
  check_kernels(c, out);
  check_rank(c, out);
  check_fault(c, out);
  return out;
}

}  // namespace perfbench
