// GeAr benchmark runner: sets up one workload, referees its outputs, then
// times every leg round-robin for a fixed duration and writes raw samples,
// counts, checks and (traced run) spans and probes to a JSON file.
// perfbench/run.py builds this binary, runs it and reduces the result to
// the benchmark's metrics; see perfbench/README.md.
//
// Usage: gear_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                       --out FILE
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "json.h"
#include "legs.h"
#include "probes.h"
#include "spans.h"
#include "stats/bitsliced.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kMinRounds = 3;  ///< timed rounds even when --seconds is short

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gear_perfbench: %s\nusage: gear_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --out FILE\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[5] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have[0] = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-') usage("--seed takes a whole number");
      have[1] = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0)) usage("--seconds must be > 0");
      have[2] = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
      have[3] = true;
    } else if (flag == "--out") {
      a.out = v;
      have[4] = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  for (const bool h : have) {
    if (!h) usage("every flag is required");
  }
  return a;
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

struct Sample {
  double work = 0.0;
  double secs = 0.0;
  double cpu_s = 0.0;
  double calib_s = 0.0;  ///< mean calibration rep time around this sample
};

struct LegRun {
  std::vector<Sample> untraced;
  std::vector<Sample> traced;
  Counts reference;  ///< the warm-up rep's counts
  int drifted = 0;   ///< reps whose counts differ from the reference
};

/// Host-speed reference timed around every rep: fixed integer, bit-matrix,
/// pointer-chasing and streaming work written in this file only, so no
/// library change can move it. A shared host slows every rep down by up
/// to ~1.6x for seconds to minutes at a time; dividing a rep's time by the
/// reference taken around it cancels most of that (see README.md).
double calibration_rep() {
  static std::vector<std::uint64_t> stream(1 << 18, 1);
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
  for (int i = 0; i < (1 << 19); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<std::uint64_t>(__builtin_popcountll(x * 0x2545f4914f6cdd1dULL));
  }
  std::uint64_t m[64];
  for (int r = 0; r < 64; ++r) m[r] = x + static_cast<std::uint64_t>(r);
  for (int rep = 0; rep < 1024; ++rep) {
    for (int j = 32, k = 0; j != 0; j >>= 1) {
      const std::uint64_t mask = ~0ULL / ((1ULL << j) + 1);
      for (k = 0; k < 64; k = (k + j + 1) & ~j) {
        const std::uint64_t t = (m[k] ^ (m[k + j] >> j)) & mask;
        m[k] ^= t;
        m[k + j] ^= t << j;
      }
    }
  }
  std::map<std::uint64_t, std::uint64_t> tree;
  for (int i = 0; i < (1 << 13); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    tree[x & 0xfffff] += 1;
  }
  for (int pass = 0; pass < 8; ++pass) {
    for (const std::uint64_t v : stream) acc += v;
  }
  volatile std::uint64_t sink = acc + m[7] + tree.size();
  (void)sink;
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// The calibration rep on every thread a leg uses: a parallel leg runs one
/// copy per executor thread and waits for the slowest, as the leg does.
double calibrate(const Leg& leg, gear::stats::ParallelExecutor& exec) {
  if (!leg.parallel) return calibration_rep();
  const std::int64_t t0 = now_ns();
  exec.for_each(static_cast<std::size_t>(exec.threads()),
                [](std::size_t) { calibration_rep(); });
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Times one rep of `leg` between two calibrations. In the traced run the
/// rep sits inside its leg's root span; the calibration does not.
void run_rep(const Leg& leg, const LegContext& ctx, LegRun& run,
             std::vector<Sample>& into) {
  const double before = calibrate(leg, ctx.exec);
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  RepResult r;
  {
    Span root(ctx.tracer, "bench", "leg." + leg.name);
    r = leg.rep(ctx);
  }
  const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
  const double cpu_s = process_cpu_s() - cpu0;
  into.push_back({r.work, secs, cpu_s, (before + calibrate(leg, ctx.exec)) / 2});
  if (r.counts != run.reference) ++run.drifted;
}

void write_samples(JsonWriter& j, const std::vector<Sample>& samples) {
  j.begin_array();
  for (const Sample& s : samples) {
    j.begin_array().value(s.work).value(s.secs).value(s.cpu_s).value(s.calib_s).end_array();
  }
  j.end_array();
}

int run(const Args& args) {
  const int cpus = usable_cpus();
  if (!kOptimized) {
    std::fprintf(stderr,
                 "gear_perfbench: refusing to measure: built without "
                 "optimization (build type '%s')\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  if (kThreads > cpus) {
    std::fprintf(stderr,
                 "gear_perfbench: refusing to measure: workloads run %d "
                 "threads but only %d CPUs are usable\n",
                 kThreads, cpus);
    return 3;
  }
  const std::optional<Workload> w = make_workload(args.workload);
  if (!w) usage(("unknown workload " + args.workload).c_str());

  // Set-up is timed once up front and once more per timed round, so its
  // samples spread over the whole run like every leg's.
  std::vector<Sample> setups;
  std::vector<double> capture_s, model_s;
  auto timed_setup = [&] {
    const double before = calibration_rep();
    const std::int64_t t0 = now_ns();
    Inputs fresh = make_inputs(*w, args.seed);
    const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
    setups.push_back({1.0, secs, secs, (before + calibration_rep()) / 2});
    capture_s.push_back(fresh.trace_capture_s);
    model_s.push_back(fresh.operand_model_s);
    return fresh;
  };
  const Inputs in = timed_setup();

  gear::stats::ParallelExecutor exec(kThreads);
  const LegContext plain{*w, in, exec, args.seed, nullptr};
  std::vector<Check> checks = run_referees(plain);

  const std::vector<Leg> legs = make_legs();
  std::vector<LegRun> runs(legs.size());
  for (std::size_t i = 0; i < legs.size(); ++i) {
    runs[i].reference = legs[i].rep(plain).counts;
  }

  // Timed rounds: every leg once per round, until the time is up. In the
  // traced run each untraced round is followed by the same round traced,
  // so host drift hits both sides of the tracing-overhead ratio alike.
  Tracer tracer;
  const LegContext traced{*w, in, exec, args.seed, &tracer};
  const std::int64_t start = now_ns();
  int rounds = 0;
  while (rounds < kMinRounds ||
         static_cast<double>(now_ns() - start) * 1e-9 < args.seconds) {
    timed_setup();
    for (std::size_t i = 0; i < legs.size(); ++i) {
      run_rep(legs[i], plain, runs[i], runs[i].untraced);
    }
    if (args.trace) {
      for (std::size_t i = 0; i < legs.size(); ++i) {
        run_rep(legs[i], traced, runs[i], runs[i].traced);
      }
    }
    ++rounds;
  }
  const Probes probes = args.trace ? run_probes(plain) : Probes{};
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const int drifted = runs[i].drifted;
    checks.push_back({"repeat_counts." + legs[i].name, drifted == 0,
                      drifted ? std::to_string(drifted) + " reps drifted" : ""});
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  JsonWriter j;
  j.begin_object();
  j.key("stamp").begin_object();
  j.field("nproc", cpus);
  j.field("threads", kThreads);
  j.field("bitsliced_dispatch", gear::stats::bitsliced_dispatch_name());
  j.field("build_type", PERFBENCH_BUILD_TYPE);
  j.field("optimized", kOptimized);
  j.field("gear_obs_enabled", GEAR_OBS_ENABLED != 0);
#ifdef __clang__
  j.field("compiler", "clang " __clang_version__);
#else
  j.field("compiler", "gcc " __VERSION__);
#endif
  j.end_object();
  j.field("workload", w->name);
  j.field("seed", args.seed);
  j.field("rounds", rounds);
  j.key("setup");
  write_samples(j, setups);
  j.key("trace_capture_s").begin_array();
  for (const double s : capture_s) j.value(s);
  j.end_array();
  j.key("operand_model_s").begin_array();
  for (const double s : model_s) j.value(s);
  j.end_array();
  j.field("peak_rss_kb", static_cast<std::int64_t>(ru.ru_maxrss));

  j.key("checks").begin_array();
  for (const Check& c : checks) {
    j.begin_object().field("name", c.name).field("ok", c.ok).field("detail", c.detail);
    j.end_object();
  }
  j.end_array();

  j.key("legs").begin_object();
  for (std::size_t i = 0; i < legs.size(); ++i) {
    j.key(legs[i].name).begin_object();
    j.field("group", legs[i].group);
    j.field("parallel", legs[i].parallel);
    j.key("untraced");
    write_samples(j, runs[i].untraced);
    j.key("traced");
    write_samples(j, runs[i].traced);
    j.key("counts").begin_object();
    for (const auto& [name, value] : runs[i].reference) j.field(name, value);
    j.end_object();
    j.end_object();
  }
  j.end_object();

  j.key("spans").begin_array();
  for (const SpanRecord& s : tracer.spans()) {
    j.begin_array()
        .value(s.id)
        .value(s.parent)
        .value(s.layer)
        .value(s.name)
        .value(s.start_ns)
        .value(s.end_ns)
        .value(s.aggregate)
        .value(s.calls)
        .value(s.lanes)
        .end_array();
  }
  j.end_array();

  j.key("probes").begin_object();
  for (const auto& [name, value] : probes) j.field(name, value);
  j.end_object();
  j.end_object();

  std::ofstream out(args.out);
  out << j.str() << '\n';
  out.close();
  if (!out) {
    std::fprintf(stderr, "gear_perfbench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
