#include "legs.h"

#include <cstring>

#include "analysis/dse_cache.h"
#include "analysis/selector.h"
#include "analysis/vulnerability.h"
#include "apps/batch_kernel.h"
#include "core/error_model.h"

namespace perfbench {

namespace core = gear::core;
namespace apps = gear::apps;
namespace stats = gear::stats;
namespace analysis = gear::analysis;

namespace {

std::string idx(const char* prefix, std::size_t i) {
  return prefix + std::to_string(i);
}

void add_hist(Digest& d, const stats::SparseHistogram& h) {
  for (const auto& [key, count] : h.entries()) {
    d.add(static_cast<std::uint64_t>(key));
    d.add(count);
  }
}

void add_image(Digest& d, const apps::Image& img) {
  const std::vector<std::uint16_t>& px = img.pixels();
  std::size_t i = 0;
  for (; i + 4 <= px.size(); i += 4) {
    std::uint64_t word = 0;
    std::memcpy(&word, px.data() + i, sizeof word);
    d.add(word);
  }
  for (; i < px.size(); ++i) d.add(std::uint64_t{px[i]});
}

// ---- characterise ---------------------------------------------------------

RepResult mc_rep(const LegContext& c) {
  RepResult r;
  for (std::size_t i = 0; i < c.w.mc_configs.size(); ++i) {
    const core::GeArConfig& cfg = c.w.mc_configs[i];
    stats::Rng rng = stats::Rng::substream(c.seed, idx("perfbench:mc:", i));
    stats::SparseHistogram hist;
    std::vector<double> detect;
    {
      Span s(c.tracer, "core", "core.mc_error_distribution");
      hist = core::mc_error_distribution(cfg, c.w.mc_trials, rng);
    }
    {
      Span s(c.tracer, "core", "core.mc_detect_count_distribution");
      detect = core::mc_detect_count_distribution(cfg, c.w.mc_trials, rng);
    }
    r.work += 2.0 * static_cast<double>(c.w.mc_trials);
    Digest d;
    add_hist(d, hist);
    for (const double p : detect) d.add(p);
    r.counts.emplace_back(idx("mc.errors.", i), hist.total() - hist.count(0));
    r.counts.emplace_back(idx("mc.digest.", i), d.value());
  }
  return r;
}

RepResult replay_rep(const LegContext& c) {
  RepResult r;
  Digest d;
  for (int pass = 0; pass < c.w.replay_passes; ++pass) {
    for (const core::GeArConfig& cfg : c.w.mc_configs) {
      for (const stats::TraceSource& trace : c.in.traces) {
        stats::SparseHistogram hist;
        {
          Span s(c.tracer, "core", "core.trace_error_distribution");
          hist = core::trace_error_distribution(cfg, trace);
        }
        r.work += static_cast<double>(trace.size());
        if (pass == 0) add_hist(d, hist);
      }
    }
  }
  r.counts.emplace_back("replay.digest", d.value());
  return r;
}

RepResult stream_rep(const LegContext& c) {
  // Reused across reps, and only sampled into the digest: allocating and
  // hashing megabytes of sums per rep is not stream work. The referee
  // checks every sum once per run.
  static std::vector<std::uint64_t> sums;
  RepResult r;
  const apps::StreamStats st = guarded_stream(c, sums);
  r.work = static_cast<double>(st.operations);
  Digest d;
  for (std::size_t i = 0; i < sums.size(); i += 64) d.add(sums[i]);
  r.counts = {{"stream.operations", st.operations},
              {"stream.cycles", st.cycles},
              {"stream.stall_cycles", st.stall_cycles},
              {"stream.corrected_ops", st.corrected_ops},
              {"stream.wrong_results", st.wrong_results},
              {"stream.fallback_events", st.fallback_events},
              {"stream.safe_mode_ops", st.safe_mode_ops},
              {"stream.sums_digest", d.value()}};
  return r;
}

RepResult exact_rep(const LegContext& c) {
  RepResult r;
  r.work = 1.0;
  for (std::size_t i = 0; i < c.w.exact_ladder.size(); ++i) {
    stats::Pmf pmf;
    {
      Span s(c.tracer, "core", idx("core.exact_error_distribution.rung", i));
      pmf = core::exact_error_distribution(c.w.exact_ladder[i]);
    }
    Digest d;
    for (const auto& [key, mass] : pmf.entries()) {
      d.add(static_cast<std::uint64_t>(key));
      d.add(mass);
    }
    r.counts.emplace_back(idx("exact.support.rung", i), pmf.distinct());
    r.counts.emplace_back(idx("exact.digest.rung", i), d.value());
  }
  Digest d;
  for (const core::GeArConfig& cfg : c.w.mc_configs) {
    for (const stats::OperandModel& model : c.in.models) {
      stats::Pmf pmf;
      {
        Span s(c.tracer, "core", "core.exact_error_distribution.cond");
        pmf = core::exact_error_distribution(cfg, model);
      }
      d.add(std::uint64_t{pmf.distinct()});
      d.add(pmf.mass(0));
    }
  }
  r.counts.emplace_back("exact.digest.cond", d.value());
  return r;
}

// ---- image_apps -----------------------------------------------------------

/// Runs `fn` on one adder inside a kernel span. In the traced run the
/// adder is wrapped in a TimedAdder whose add_batch totals become an
/// aggregate child of the kernel span.
template <typename Fn>
void run_kernel(const LegContext& c, const NamedAdder& adder,
                const std::string& kernel, Fn&& fn) {
  if (c.tracer == nullptr) {
    fn(*adder.adder);
    return;
  }
  TimedAdder timed(*adder.adder);
  Span s(c.tracer, "apps", "apps." + kernel + "_batch");
  fn(timed);
  timed.flush(*c.tracer, "adders.add_batch." + kernel);
}

double frame_pixels(const apps::Image& img) {
  return static_cast<double>(img.pixel_count());
}

RepResult lpf_rep(const LegContext& c) {
  RepResult r;
  for (const NamedAdder& a : c.in.adders) {
    Digest d;
    run_kernel(c, a, "lpf3x3", [&](const gear::adders::ApproxAdder& adder) {
      add_image(d, apps::lpf3x3_batch(c.in.frame, adder));
    });
    run_kernel(c, a, "lpf_binomial", [&](const gear::adders::ApproxAdder& adder) {
      add_image(d, apps::lpf_binomial_batch(c.in.frame, adder));
    });
    r.work += 2.0 * frame_pixels(c.in.frame);
    r.counts.emplace_back("lpf." + a.family, d.value());
  }
  return r;
}

RepResult sobel_rep(const LegContext& c) {
  RepResult r;
  for (const NamedAdder& a : c.in.adders) {
    Digest d;
    run_kernel(c, a, "sobel", [&](const gear::adders::ApproxAdder& adder) {
      add_image(d, apps::sobel_batch(c.in.frame, adder));
    });
    r.work += frame_pixels(c.in.frame);
    r.counts.emplace_back("sobel." + a.family, d.value());
  }
  return r;
}

RepResult integral_rep(const LegContext& c) {
  RepResult r;
  for (const NamedAdder& a : c.in.adders) {
    Digest d;
    for (int pass = 0; pass < c.w.integral_passes; ++pass) {
      run_kernel(c, a, "integral", [&](const gear::adders::ApproxAdder& adder) {
        const auto rows = apps::row_integral_batch(c.in.frame, adder);
        if (pass == 0) {
          for (const auto& row : rows) {
            for (const std::uint64_t v : row) d.add(v);
          }
        }
      });
      r.work += frame_pixels(c.in.frame);
    }
    r.counts.emplace_back("integral." + a.family, d.value());
  }
  return r;
}

RepResult sad_rep(const LegContext& c) {
  RepResult r;
  for (const NamedAdder& a : c.in.adders) {
    Digest d;
    run_kernel(c, a, "sad", [&](const gear::adders::ApproxAdder& adder) {
      d.add(apps::sad_match_rate_batch(c.in.sad_ref, c.in.sad_cand, 16, 16, 3,
                                       adder));
    });
    r.work += frame_pixels(c.in.sad_ref);
    r.counts.emplace_back("sad." + a.family, d.value());
  }
  return r;
}

// ---- design_sweep ---------------------------------------------------------

RepResult rank_rep(const LegContext& c) {
  RepResult r;
  for (int pass = 0; pass < c.w.rank_passes; ++pass) {
    analysis::DseCache cache;
    const analysis::SweepContext ctx{&c.exec, &cache};
    Digest d;
    for (const bool detection : {false, true}) {
      analysis::SelectionRequest req;
      req.n = c.w.hetero.n;
      req.max_error_probability = 1.0;  // rank every candidate
      req.with_detection = detection;
      std::vector<analysis::SelectedConfig> ranked;
      {
        Span s(c.tracer, "analysis", "analysis.rank_configs");
        ranked = analysis::rank_configs(req, ctx);
      }
      r.work += static_cast<double>(ranked.size());
      for (const analysis::SelectedConfig& sc : ranked) {
        d.add(static_cast<std::uint64_t>(sc.area_luts));
        d.add(sc.delay_ns);
        d.add(sc.exact_med);
      }
    }
    if (pass == 0) {
      r.counts = {{"dse.hits", cache.hits()},
                  {"dse.misses", cache.misses()},
                  {"dse.fast_path", cache.fast_path_evals()},
                  {"dse.ranked_digest", d.value()}};
    }
  }
  return r;
}

RepResult hetero_rep(const LegContext& c) {
  analysis::DseCache cache;
  const analysis::SweepContext ctx{&c.exec, &cache};
  analysis::HeteroExploreOptions opts;
  opts.budget = c.w.hetero_budget;
  opts.prune = true;
  analysis::HeteroExploreResult res;
  {
    Span s(c.tracer, "analysis", "analysis.explore_hetero");
    res = analysis::explore_hetero(*c.in.space, opts, ctx);
  }
  Digest d;
  for (const analysis::HeteroCandidate& h : res.front) d.add(h.index);
  RepResult r;
  r.work = static_cast<double>(res.evaluated);
  r.counts = {{"hetero.evaluated", res.evaluated},
              {"hetero.pruned", res.pruned},
              {"hetero.synthesized", res.synthesized},
              {"hetero.front", res.front.size()},
              {"hetero.front_digest", d.value()}};
  return r;
}

RepResult fault_rep(const LegContext& c) {
  RepResult r;
  analysis::OutcomeCounts totals;
  for (std::size_t i = 0; i < c.in.winner_netlists.size(); ++i) {
    analysis::FaultCampaignOptions opts;
    opts.samples = c.w.fault_samples;
    opts.master_seed = stats::fnv1a(idx("perfbench:fault:", i)) ^ c.seed;
    opts.include_transient = true;
    opts.include_stuck = true;
    opts.use_bitsliced = true;
    analysis::FaultCampaignResult res;
    {
      Span s(c.tracer, "analysis", "analysis.run_fault_campaign");
      res = analysis::run_fault_campaign(c.in.winner_netlists[i], opts, c.exec);
    }
    totals.merge(res.totals);
  }
  r.work = static_cast<double>(totals.injections);
  r.counts = {{"fault.injections", totals.injections},
              {"fault.masked", totals.masked},
              {"fault.false_alarm", totals.false_alarm},
              {"fault.detected", totals.detected},
              {"fault.sdc", totals.sdc}};
  return r;
}

}  // namespace

apps::StreamStats guarded_stream(const LegContext& c, std::vector<std::uint64_t>& sums) {
  const apps::StreamAdderEngine& engine = *c.in.guarded;
  std::optional<core::Watchdog> watchdog = engine.make_watchdog();
  const std::vector<stats::OperandPair>& ops = c.in.stream_ops;
  sums.resize(ops.size());  // every element is written below
  apps::StreamStats total;
  for (int pass = 0; pass < c.w.stream_passes; ++pass) {
    for (std::size_t off = 0; off < ops.size(); off += c.w.stream_slice) {
      const std::size_t n = std::min(c.w.stream_slice, ops.size() - off);
      Span s(c.tracer, "apps", "apps.run_with_sums");
      total.merge(engine.run_with_sums(ops.data() + off, n, sums.data() + off,
                                       &*watchdog));
    }
  }
  return total;
}

std::vector<Leg> make_legs() {
  return {
      {"mc", "characterise", false, mc_rep},
      {"replay", "characterise", false, replay_rep},
      {"stream", "characterise", false, stream_rep},
      {"exact", "characterise", false, exact_rep},
      {"lpf", "image_apps", false, lpf_rep},
      {"sobel", "image_apps", false, sobel_rep},
      {"integral", "image_apps", false, integral_rep},
      {"sad", "image_apps", false, sad_rep},
      {"rank", "design_sweep", true, rank_rep},
      {"hetero", "design_sweep", true, hetero_rep},
      {"fault", "design_sweep", true, fault_rep},
  };
}

}  // namespace perfbench
