// The benchmark binary: runs one workload of the simulator, pinned to one CPU,
// checks its outputs and prints its metrics as the last line of stdout:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// --trace 0 repeats the workload untraced and reports the end-to-end
// metrics, in host seconds at the reference host speed
// (calibration.hpp); --trace 1 alternates untraced and traced reps and
// reports the per-layer metrics.  perfbench/NOTES.md describes every metric.

#include <sched.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "calibration.hpp"
#include "jobs.hpp"
#include "sim/fiber.hpp"
#include "tracing.hpp"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  ///< records go to results/, traces to trace/
};

bool parseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    errno = 0;
    if (key == "--workload") {
      opt.workload = value;
      continue;
    }
    if (key == "--out-dir") {
      opt.out_dir = value;
      continue;
    }
    const double v = std::strtod(value, &end);
    if (end == value || *end != '\0' || errno != 0 || !(v >= 0)) return false;
    if (key == "--seed" && v == std::floor(v) && v < 1e18) {
      opt.seed = static_cast<std::uint64_t>(v);
    } else if (key == "--seconds" && v > 0 && v <= 3600) {
      opt.seconds = v;
    } else if (key == "--trace" && (v == 0 || v == 1)) {
      opt.trace = v == 1;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty();
}

struct Host {
  int nproc = 0;  ///< CPUs this process could use before pinning
  int cpu = -1;
  unsigned hardware_concurrency = 0;
};

[[noreturn]] void pinFailed(int cpu, const char* what) {
  std::fprintf(stderr, "perfbench: cannot pin to CPU %d: %s\n", cpu, what);
  std::exit(3);
}

/// Pins the process to the highest-numbered CPU it may use, before any
/// thread exists, so that every fiber thread inherits the pin.
Host pinToOneCpu() {
  Host host;
  host.hardware_concurrency = std::thread::hardware_concurrency();
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    pinFailed(-1, std::strerror(errno));
  }
  host.nproc = CPU_COUNT(&allowed);
  for (int c = CPU_SETSIZE - 1; host.cpu < 0 && c >= 0; --c) {
    if (CPU_ISSET(c, &allowed)) host.cpu = c;
  }
  if (host.cpu < 0) pinFailed(-1, "empty affinity mask");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(host.cpu, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) {
    pinFailed(host.cpu, std::strerror(errno));
  }
  cpu_set_t now;
  CPU_ZERO(&now);
  if (sched_getaffinity(0, sizeof now, &now) != 0 || CPU_COUNT(&now) != 1 ||
      !CPU_ISSET(host.cpu, &now) || sched_getcpu() != host.cpu) {
    pinFailed(host.cpu, "affinity did not take effect");
  }
  return host;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

/// Round-robin resume/yield over `n` idle fibers, like the rank fibers of a
/// job; returns host ns per resume (one switch in and one out).
double fiberSwitchNs(int n) {
  constexpr int kResumes = 40000;
  std::vector<bcs::sim::Fiber*> self(static_cast<std::size_t>(n), nullptr);
  std::vector<std::unique_ptr<bcs::sim::Fiber>> fibers;
  for (std::size_t i = 0; i < self.size(); ++i) {
    fibers.push_back(std::make_unique<bcs::sim::Fiber>([&self, i] {
      for (;;) self[i]->yield();
    }));
    self[i] = fibers.back().get();
  }
  for (auto& f : fibers) f->resume();  // starts the threads, untimed
  const int rounds = std::max(4, kResumes / n);
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    for (auto& f : fibers) f->resume();
  }
  const double s = secondsBetween(t0, Clock::now());
  return s * 1e9 / (static_cast<double>(rounds) * n);
}

std::string format(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, v);
  return buf;
}

/// Minimal JSON object writer.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    return raw(key, std::isfinite(v) ? format("%.10g", v) : "0");
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  Json& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += quote(key);
    body_ += ": ";
    body_ += json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char esc[8];
        std::snprintf(esc, sizeof esc, "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += esc;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

std::string jsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Reps and the output check
// ---------------------------------------------------------------------------

struct Rep {
  bool traced = false;
  std::vector<JobResult> jobs;

  /// Raw host seconds.
  double wallS() const { return sum(&JobResult::run_s); }
  double setupS() const {
    double s = 0;
    for (const JobResult& j : jobs) s += j.setup.total();
    return s;
  }
  /// Untraced reps: at the reference host speed.
  double refWallS() const { return sum(&JobResult::ref_run_s); }
  double refSetupS() const { return sum(&JobResult::ref_setup_s); }
  double sum(double JobResult::*field) const {
    double s = 0;
    for (const JobResult& j : jobs) s += j.*field;
    return s;
  }
  const JobResult* job(Library lib) const {
    for (const JobResult& j : jobs) {
      if (j.lib == lib) return &j;
    }
    return nullptr;
  }
};

Rep runRep(const Workload& wl, const std::vector<int>& map,
           Calibrator& calibrator, Tracer* tracer) {
  Rep rep;
  rep.traced = tracer != nullptr;
  for (const Library lib : wl.jobs) {
    rep.jobs.push_back(runJob(wl, lib, map, calibrator, tracer));
  }
  return rep;
}

double slowdownPct(const Rep& rep) {
  const JobResult* base = rep.job(Library::kBaseline);
  const JobResult* bcs = rep.job(Library::kBcsMpi);
  if (base == nullptr || bcs == nullptr || base->sim_s <= 0) return 0;
  return (bcs->sim_s / base->sim_s - 1.0) * 100.0;
}

/// Checks one rep against the workload's invariants, its seed-0 reference
/// row and `first` (the first rep of this run: same seed, so identical
/// outputs and counters).  Returns the number of failed jobs.
int checkRep(const Workload& wl, std::uint64_t seed, const Rep& rep,
             const Rep& first, const Rep* first_traced,
             std::vector<std::string>& problems) {
  std::vector<bool> failed(rep.jobs.size(), false);
  const auto fail = [&](std::size_t j, const std::string& why) {
    failed[j] = true;
    problems.push_back(std::string(libraryName(rep.jobs[j].lib)) + ": " +
                       why);
  };
  for (std::size_t j = 0; j < rep.jobs.size(); ++j) {
    const JobResult& job = rep.jobs[j];
    if (!job.ok) fail(j, job.error);
    for (int r = 0; wl.expected_checksum && r < wl.ranks; ++r) {
      const double want = wl.expected_checksum(r);
      if (job.checksums[static_cast<std::size_t>(r)] != want) {
        fail(j, "rank " + std::to_string(r) + " checksum differs from the "
                "closed-form value");
        break;
      }
    }
    if (job.lib == Library::kBcsMpi &&
        job.counters.matches != job.counters.descriptors) {
      fail(j, "MSM matches differ from descriptors exchanged");
    }
    const JobResult& ref = first.jobs[j];
    if (!(job.counters == ref.counters) || job.sim_s != ref.sim_s ||
        job.checksums != ref.checksums) {
      fail(j, "outputs or counters differ from the first rep of this seed");
    }
    if (rep.traced && first_traced != nullptr) {
      const JobTrace& a = job.trace;
      const JobTrace& b = first_traced->jobs[j].trace;
      if (a.suspends != b.suspends || a.mpi_calls != b.mpi_calls) {
        fail(j, "wrapper counts differ from the first traced rep");
      }
    }
  }
  const JobResult* base = rep.job(Library::kBaseline);
  const JobResult* bcs = rep.job(Library::kBcsMpi);
  if (base != nullptr && bcs != nullptr) {
    const std::size_t ib = static_cast<std::size_t>(base - rep.jobs.data());
    const std::size_t ic = static_cast<std::size_t>(bcs - rep.jobs.data());
    if (base->checksums != bcs->checksums) {
      fail(ib, "checksums differ from the BCS-MPI job");
      fail(ic, "checksums differ from the baseline job");
    }
    if (seed == 0 && !wl.ref_bcs_s.empty()) {
      if (format("%.3f", base->sim_s) != wl.ref_baseline_s) {
        fail(ib, "simulated time " + format("%.3f", base->sim_s) +
                     " s differs from the reference " + wl.ref_baseline_s);
      }
      if (format("%.3f", bcs->sim_s) != wl.ref_bcs_s) {
        fail(ic, "simulated time " + format("%.3f", bcs->sim_s) +
                     " s differs from the reference " + wl.ref_bcs_s);
      }
      if (format("%.2f", slowdownPct(rep)) != wl.ref_slowdown_pct) {
        fail(ic, "slowdown " + format("%.2f", slowdownPct(rep)) +
                     " % differs from the reference " + wl.ref_slowdown_pct);
      }
    }
  }
  return static_cast<int>(std::count(failed.begin(), failed.end(), true));
}

void printRep(std::size_t index, const Rep& rep) {
  std::printf("rep %zu [%s]: wall %.4f s, setup %.4f s", index + 1,
              rep.traced ? "traced" : "untraced", rep.wallS(), rep.setupS());
  if (!rep.traced) {
    std::printf(" (at reference speed: wall %.4f s, setup %.4f s)",
                rep.refWallS(), rep.refSetupS());
  }
  for (const JobResult& j : rep.jobs) {
    std::printf(" | %s: sim %.3f s, job %.4f s%s", libraryName(j.lib),
                j.sim_s, j.run_s, j.ok ? "" : " FAILED");
  }
  if (rep.jobs.size() == 2) {
    std::printf(" | slowdown %.2f %%", slowdownPct(rep));
  }
  std::printf("\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> endToEndMetrics(const std::vector<Rep>& reps,
                                    std::vector<double> setup_samples) {
  std::vector<double> wall;
  for (const Rep& r : reps) {
    wall.push_back(r.refWallS());
    setup_samples.push_back(r.refSetupS());
  }
  return {{"wall_s", median(wall), "s"},
          {"setup_s", median(setup_samples), "s"},
          {"peak_rss_mb", peakRssMb(), "MB"}};
}

/// Per-layer metrics of one library's job over the traced reps.  A library
/// the workload does not run reports zeros, so every workload prints the
/// same metric names.
void addJobMetrics(Library lib, const std::vector<const JobResult*>& jobs,
                   std::vector<Metric>& out) {
  const std::string p = std::string(libraryName(lib)) + ".";
  std::vector<double> job_s, cluster_s, launch_s, resume_s, switches, sys_s,
      threads, call_cpu_us, slice_us, idle_us;
  for (const JobResult* j : jobs) {
    job_s.push_back(j->run_s);
    cluster_s.push_back(j->setup.cluster_s);
    launch_s.push_back(j->setup.launch_s);
    resume_s.push_back(j->setup.first_resume_s);
    switches.push_back(static_cast<double>(j->kernel_switches));
    sys_s.push_back(j->sys_s);
    threads.push_back(static_cast<double>(j->peak_threads));
    call_cpu_us.insert(call_cpu_us.end(), j->trace.call_cpu_us.begin(),
                       j->trace.call_cpu_us.end());
    slice_us.insert(slice_us.end(), j->trace.slice_us.begin(),
                    j->trace.slice_us.end());
    idle_us.insert(idle_us.end(), j->trace.idle_slice_us.begin(),
                   j->trace.idle_slice_us.end());
  }
  const JobResult none;
  const JobResult& j = jobs.empty() ? none : *jobs.front();
  const Counters& c = j.counters;
  const double job = median(job_s);
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::vector<Metric> common = {
      {"sim_s", j.sim_s, "s"},
      {"job_s", job, "s"},
      {"setup.cluster_s", median(cluster_s), "s"},
      {"setup.launch_s", median(launch_s), "s"},
      {"setup.first_resume_s", median(resume_s), "s"},
      {"engine.events", count(c.events), "count"},
      {"engine.cancelled", count(c.cancelled), "count"},
      {"engine.events_per_s", per(count(c.events), job), "1/s"},
      {"fiber.suspends", count(j.trace.suspends), "count"},
      {"fiber.kernel_switches", median(switches), "count"},
      {"fiber.sys_s", median(sys_s), "s"},
      {"fiber.os_threads", median(threads), "count"},
      {"fabric.unicasts", count(c.unicasts), "count"},
      {"fabric.multicasts", count(c.multicasts), "count"},
      {"fabric.conditionals", count(c.conditionals), "count"},
      {"fabric.payload_mb", count(c.payload_bytes) / 1e6, "MB"},
      {"mpi.calls", count(j.trace.mpi_calls), "count"},
      {"mpi.post_us_p50", quantile(call_cpu_us, 0.5), "us"},
      {"mpi.post_us_p99", quantile(call_cpu_us, 0.99), "us"},
  };
  for (const Metric& m : common) out.push_back({p + m.name, m.value, m.unit});
  if (lib != Library::kBcsMpi) return;
  const double steps = count(j.trace.slice_us.size());
  const std::vector<Metric> runtime = {
      {"engine.events_per_slice", per(count(c.events), count(c.slices)),
       "count"},
      {"runtime.slices", count(c.slices), "count"},
      {"runtime.overruns", count(c.overruns), "count"},
      {"runtime.root_msgs_per_slice", median(j.trace.root_msgs), "count"},
      {"runtime.slices_per_s", per(count(c.slices), job), "1/s"},
      {"runtime.slice_us_p50", quantile(slice_us, 0.5), "us"},
      {"runtime.slice_us_p99", quantile(slice_us, 0.99), "us"},
      {"runtime.idle_slice_us_p50", quantile(idle_us, 0.5), "us"},
      {"runtime.busy_slice_frac", per(count(j.trace.busy_slices), steps),
       "fraction"},
      {"msm.descriptors", count(c.descriptors), "count"},
      {"msm.matches", count(c.matches), "count"},
      {"msm.chunks", count(c.chunks), "count"},
      {"msm.match_frac", per(count(c.matches), count(c.descriptors)),
       "fraction"},
  };
  for (const Metric& m : runtime) out.push_back({p + m.name, m.value, m.unit});
}

std::vector<Metric> perLayerMetrics(const std::vector<Rep>& reps,
                                    double switch_ns) {
  std::vector<Metric> out;
  std::vector<double> untraced, traced, calibration_ms;
  const Rep* first_traced = nullptr;
  for (const Rep& r : reps) {
    (r.traced ? traced : untraced).push_back(r.wallS());
    if (r.traced && first_traced == nullptr) first_traced = &r;
    for (const JobResult& j : r.jobs) {
      if (!r.traced) calibration_ms.push_back(j.calibration_s * 1e3);
    }
  }
  for (const Library lib : {Library::kBaseline, Library::kBcsMpi}) {
    std::vector<const JobResult*> jobs;
    for (const Rep& r : reps) {
      if (r.traced && r.job(lib) != nullptr) jobs.push_back(r.job(lib));
    }
    addJobMetrics(lib, jobs, out);
  }
  out.push_back({"slowdown_pct", first_traced ? slowdownPct(*first_traced) : 0,
                 "%"});
  out.push_back({"fiber.switch_ns", switch_ns, "ns"});
  out.push_back({"wall_raw_s", median(untraced), "s"});
  out.push_back({"host.calibration_ms", median(calibration_ms), "ms"});
  out.push_back({"trace.overhead_frac", median(traced) / median(untraced) - 1,
                 "fraction"});
  return out;
}

std::string metricsJson(const std::vector<Metric>& metrics) {
  Json all;
  for (const Metric& m : metrics) {
    all.raw(m.name, Json().num("value", m.value).str("unit", m.unit).text());
  }
  return all.text();
}

std::string countersJson(const Counters& c) {
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  return Json()
      .num("events", n(c.events))
      .num("cancelled", n(c.cancelled))
      .num("unicasts", n(c.unicasts))
      .num("multicasts", n(c.multicasts))
      .num("conditionals", n(c.conditionals))
      .num("payload_bytes", n(c.payload_bytes))
      .num("slices", n(c.slices))
      .num("overruns", n(c.overruns))
      .num("descriptors", n(c.descriptors))
      .num("matches", n(c.matches))
      .num("chunks", n(c.chunks))
      .num("collectives", n(c.collectives))
      .text();
}

std::string hostJson(const Host& host) {
  return Json()
      .num("nproc", host.nproc)
      .num("cpu", host.cpu)
      .num("hardware_concurrency", host.hardware_concurrency)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .text();
}

/// The per-run record: host, every rep's timings, and each job's outputs
/// (simulated finish time, per-rank checksums, counters) from the first rep.
std::string recordJson(const Options& opt, const Host& host,
                       const std::vector<Rep>& reps,
                       const std::vector<double>& setup_samples,
                       const std::vector<std::string>& problems,
                       const std::vector<Metric>& metrics) {
  std::vector<std::string> rep_list, outputs, problem_list, setups;
  for (const Rep& r : reps) {
    std::vector<std::string> jobs;
    for (const JobResult& j : r.jobs) {
      jobs.push_back(
          Json()
              .str("library", libraryName(j.lib))
              .boolean("ok", j.ok)
              .num("job_s", j.run_s)
              .num("setup_s", j.setup.total())
              .num("ref_job_s", j.ref_run_s)
              .num("ref_setup_s", j.ref_setup_s)
              .num("calibration_s", j.calibration_s)
              .num("kernel_switches", static_cast<double>(j.kernel_switches))
              .num("sys_s", j.sys_s)
              .num("peak_threads", static_cast<double>(j.peak_threads))
              .text());
    }
    rep_list.push_back(Json()
                           .boolean("traced", r.traced)
                           .num("wall_s", r.wallS())
                           .num("setup_s", r.setupS())
                           .num("ref_wall_s", r.refWallS())
                           .num("ref_setup_s", r.refSetupS())
                           .raw("jobs", jsonList(jobs))
                           .text());
  }
  for (const JobResult& j : reps.front().jobs) {
    std::vector<std::string> sums;
    for (const double s : j.checksums) sums.push_back(format("%.17g", s));
    outputs.push_back(Json()
                          .str("library", libraryName(j.lib))
                          .str("error", j.error)
                          .num("sim_s", j.sim_s)
                          .raw("counters", countersJson(j.counters))
                          .raw("checksums", jsonList(sums))
                          .text());
  }
  for (const std::string& p : problems) problem_list.push_back(Json::quote(p));
  for (const double s : setup_samples) setups.push_back(format("%.10g", s));
  return Json()
      .str("workload", opt.workload)
      .num("seed", static_cast<double>(opt.seed))
      .boolean("trace", opt.trace)
      .num("seconds", opt.seconds)
      .raw("host", hostJson(host))
      .num("slowdown_pct", slowdownPct(reps.front()))
      .raw("outputs", jsonList(outputs))
      .raw("reps", jsonList(rep_list))
      .raw("ref_setup_only_s", jsonList(setups))
      .raw("problems", jsonList(problem_list))
      .raw("metrics", metricsJson(metrics))
      .text();
}

bool writeFile(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text << "\n";
  f.close();
  return static_cast<bool>(f);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parseArgs(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  const Workload* wl = findWorkload(opt.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'; one of:",
                 opt.workload.c_str());
    for (const std::string& n : workloadNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Host host = pinToOneCpu();
  std::printf("host: nproc %d, pinned to cpu %d, hardware_concurrency %u, "
              "build %s\n", host.nproc, host.cpu, host.hardware_concurrency,
              PERFBENCH_BUILD_TYPE);
  std::printf("workload %s, seed %llu, %s run of %.0f s\n",
              wl->name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "untraced", opt.seconds);
  std::fflush(stdout);
  // Forked here, while this process has no other thread.
  Calibrator calibrator;

  const std::vector<int> map = placement(*wl, opt.seed);
  const Clock::time_point start = Clock::now();
  // Another round of reps starts only if it should end within --seconds, as
  // long as the last one took; so a run lasts about --seconds.
  Clock::time_point round_start = start;
  const auto another_round = [&] {
    const Clock::time_point now = Clock::now();
    const double round_s = secondsBetween(round_start, now);
    round_start = now;
    return secondsBetween(start, now) + round_s <= opt.seconds;
  };

  // Extra set-up samples: set-up is milliseconds on the paper workloads, so
  // its median needs more samples than the full reps give.
  constexpr int kSetupOnlyReps = 5;
  std::vector<double> setup_samples;
  double switch_ns = 0;
  std::vector<Rep> reps;
  std::optional<Tracer> tracer;  // the first traced rep's, written out below
  if (!opt.trace) {
    for (int i = 0; i < kSetupOnlyReps; ++i) {
      double s = 0;
      for (const Library lib : wl->jobs) {
        s += setupOnlyRefS(*wl, lib, map, calibrator);
      }
      setup_samples.push_back(s);
    }
    round_start = Clock::now();
    do {
      reps.push_back(runRep(*wl, map, calibrator, nullptr));
      printRep(reps.size() - 1, reps.back());
    } while (another_round());
  } else {
    switch_ns = fiberSwitchNs(wl->ranks);
    std::printf("fiber switch: %.0f ns per resume over %d fibers\n",
                switch_ns, wl->ranks);
    round_start = Clock::now();
    do {
      reps.push_back(runRep(*wl, map, calibrator, nullptr));
      printRep(reps.size() - 1, reps.back());
      // Later traced reps add samples; their spans are dropped.
      Tracer later;
      reps.push_back(runRep(*wl, map, calibrator,
                            tracer ? &later : &tracer.emplace()));
      printRep(reps.size() - 1, reps.back());
    } while (another_round());
  }

  int attempted = 0;
  int failed = 0;
  std::vector<std::string> problems;
  const Rep* first_traced = nullptr;
  for (const Rep& r : reps) {
    attempted += static_cast<int>(r.jobs.size());
    failed += checkRep(*wl, opt.seed, r, reps.front(), first_traced, problems);
    if (r.traced && first_traced == nullptr) first_traced = &r;
  }
  for (const std::string& p : problems) std::printf("FAILED %s\n", p.c_str());

  const std::vector<Metric> metrics =
      opt.trace ? perLayerMetrics(reps, switch_ns)
                : endToEndMetrics(reps, setup_samples);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }

  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(fs::path(opt.out_dir) / "results", ec);
  const std::string stem = opt.workload + "_seed" +
                           std::to_string(opt.seed) +
                           (opt.trace ? "_traced" : "_untraced");
  const std::string record_path =
      (fs::path(opt.out_dir) / "results" / (stem + ".json")).string();
  if (!writeFile(record_path, recordJson(opt, host, reps, setup_samples,
                                         problems, metrics))) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", record_path.c_str());
    return 1;
  }
  std::printf("record: %s\n", record_path.c_str());
  if (opt.trace) {
    fs::create_directories(fs::path(opt.out_dir) / "trace", ec);
    const std::string trace_path =
        (fs::path(opt.out_dir) / "trace" / (opt.workload + ".json")).string();
    const std::string other = Json()
                                  .str("workload", opt.workload)
                                  .num("seed", static_cast<double>(opt.seed))
                                  .raw("host", hostJson(host))
                                  .text();
    if (!tracer->writeChromeJson(trace_path, other)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("chrome trace: %s (%zu spans)\n", trace_path.c_str(),
                tracer->spanCount());
  }

  std::printf("%s\n", Json()
                          .boolean("correct", failed == 0)
                          .num("attempted", attempted)
                          .num("failed", failed)
                          .raw("metrics", metricsJson(metrics))
                          .text()
                          .c_str());
  return 0;
}
