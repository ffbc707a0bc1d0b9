#include "tracing.hpp"

#include <time.h>

#include <cstdio>
#include <type_traits>

namespace perfbench {

namespace {

double usBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// CPU time of the calling thread.  Each rank fiber is its own OS thread, so
/// this excludes the engine and the other ranks that run while it waits.
double threadCpuUs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

int Tracer::beginJob(const std::string& label, int ranks) {
  jobs_.push_back(Job{label, ranks});
  return static_cast<int>(jobs_.size());
}

void Tracer::span(int pid, int tid, const char* name, const char* cat,
                  Clock::time_point start, Clock::time_point end,
                  std::int64_t sim_ns) {
  spans_.push_back(Span{name, cat, pid, tid, usBetween(origin_, start),
                        usBetween(start, end), sim_ns});
}

bool Tracer::writeChromeJson(const std::string& path,
                             const std::string& other_data) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
                  "\"traceEvents\":[\n", other_data.c_str());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const int pid = static_cast<int>(j) + 1;
    std::fprintf(f, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                    "\"args\":{\"name\":\"%s job\"}},\n",
                 pid, jobs_[j].label.c_str());
    std::fprintf(f, "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                    "\"tid\":0,\"args\":{\"name\":\"cluster\"}},\n", pid);
    for (int r = 0; r < jobs_[j].ranks; ++r) {
      std::fprintf(f, "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                      "\"tid\":%d,\"args\":{\"name\":\"rank %d\"}},\n",
                   pid, r + 1, r);
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,"
                    "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"sim_us\":%.3f}}%s\n",
                 s.name, s.cat, s.pid, s.tid, s.ts_us, s.dur_us,
                 static_cast<double>(s.sim_ns) / 1e3,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  const bool written = std::ferror(f) == 0;
  return std::fclose(f) == 0 && written;
}

TracedComm::TracedComm(bcs::mpi::Comm& inner, Tracer& tracer,
                       JobTrace& stats, int pid)
    : inner_(inner),
      tracer_(tracer),
      stats_(stats),
      pid_(pid),
      tid_(inner.rank() + 1) {}

template <typename F>
auto TracedComm::timed(const char* name, bool mpi_call, F&& call) const {
  const bcs::sim::SimTime sim0 = inner_.now();
  const Clock::time_point start = Clock::now();
  const double cpu0 = threadCpuUs();
  const auto record = [&] {
    const double cpu_us = threadCpuUs() - cpu0;
    const Clock::time_point end = Clock::now();
    const bool suspended = inner_.now() != sim0;
    if (suspended) ++stats_.suspends;
    if (mpi_call) {
      ++stats_.mpi_calls;
      stats_.call_cpu_us.push_back(cpu_us);
    }
    tracer_.span(pid_, tid_, name, suspended ? "suspend" : "inline", start,
                 end, sim0);
  };
  if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
    call();
    record();
  } else {
    auto result = call();
    record();
    return result;
  }
}

void TracedComm::compute(bcs::sim::Duration work) {
  timed("compute", false, [&] { inner_.compute(work); });
}

void TracedComm::send(const void* buf, std::size_t bytes, int dest, int tag) {
  timed("send", true, [&] { inner_.send(buf, bytes, dest, tag); });
}

void TracedComm::recv(void* buf, std::size_t bytes, int src, int tag,
                      bcs::mpi::Status* status) {
  timed("recv", true, [&] { inner_.recv(buf, bytes, src, tag, status); });
}

bcs::mpi::Request TracedComm::isend(const void* buf, std::size_t bytes,
                                    int dest, int tag) {
  return timed("isend", true,
               [&] { return inner_.isend(buf, bytes, dest, tag); });
}

bcs::mpi::Request TracedComm::irecv(void* buf, std::size_t bytes, int src,
                                    int tag) {
  return timed("irecv", true,
               [&] { return inner_.irecv(buf, bytes, src, tag); });
}

void TracedComm::wait(bcs::mpi::Request& r, bcs::mpi::Status* status) {
  timed("wait", true, [&] { inner_.wait(r, status); });
}

bool TracedComm::test(bcs::mpi::Request& r, bcs::mpi::Status* status) {
  return timed("test", true, [&] { return inner_.test(r, status); });
}

bool TracedComm::completed(const bcs::mpi::Request& r) const {
  return timed("completed", true, [&] { return inner_.completed(r); });
}

void TracedComm::waitall(std::span<bcs::mpi::Request> reqs) {
  timed("waitall", true, [&] { inner_.waitall(reqs); });
}

bool TracedComm::testall(std::span<bcs::mpi::Request> reqs) {
  return timed("testall", true, [&] { return inner_.testall(reqs); });
}

bool TracedComm::probe(int src, int tag, bcs::mpi::Status* status,
                       bool blocking) {
  return timed("probe", true,
               [&] { return inner_.probe(src, tag, status, blocking); });
}

void TracedComm::barrier() {
  timed("barrier", true, [&] { inner_.barrier(); });
}

void TracedComm::bcast(void* buf, std::size_t bytes, int root) {
  timed("bcast", true, [&] { inner_.bcast(buf, bytes, root); });
}

void TracedComm::reduce(const void* contrib, void* result, std::size_t count,
                        bcs::mpi::Datatype dt, bcs::mpi::ReduceOp op,
                        int root) {
  timed("reduce", true,
        [&] { inner_.reduce(contrib, result, count, dt, op, root); });
}

void TracedComm::allreduce(const void* contrib, void* result,
                           std::size_t count, bcs::mpi::Datatype dt,
                           bcs::mpi::ReduceOp op) {
  timed("allreduce", true,
        [&] { inner_.allreduce(contrib, result, count, dt, op); });
}

}  // namespace perfbench
