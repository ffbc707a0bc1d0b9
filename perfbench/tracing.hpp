#pragma once

// Tracing for the benchmark's traced run, recorded entirely from outside the
// simulator: spans kept in memory and written once as Chrome trace-event
// JSON, and a communicator wrapper that times every call a rank makes.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "jobs.hpp"
#include "mpi/comm.hpp"

namespace perfbench {

/// Spans of one traced rep.  Each job is one trace process: track 0 holds
/// the set-up, slice-step and teardown spans, track r + 1 the calls
/// of rank r.
class Tracer {
 public:
  Tracer();

  /// Starts a trace process for a job; returns its pid.
  int beginJob(const std::string& label, int ranks);

  /// `sim_ns` is the simulated time when the span began.
  void span(int pid, int tid, const char* name, const char* cat,
            Clock::time_point start, Clock::time_point end,
            std::int64_t sim_ns);

  std::size_t spanCount() const { return spans_.size(); }

  /// Writes every span as Chrome trace-event JSON (chrome://tracing and
  /// Perfetto open it offline).  `other_data` is a JSON object stored under
  /// "otherData".  Returns false if the file cannot be written.
  bool writeChromeJson(const std::string& path,
                       const std::string& other_data) const;

 private:
  struct Span {
    const char* name;
    const char* cat;
    int pid;
    int tid;
    double ts_us;
    double dur_us;
    std::int64_t sim_ns;
  };
  struct Job {
    std::string label;
    int ranks;
  };

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Job> jobs_;
};

/// Forwards every virtual call to the library's own override and times it.
/// A call that returns at a later simulated time suspended the rank's fiber;
/// the host time of one that did not is the library's posting cost.
///
/// The composed collectives of mpi::Comm are not virtual: they run here and
/// draw their tags from this wrapper's sequence.  No library draws
/// collective tags itself, so every rank still agrees on the sequence.
class TracedComm final : public bcs::mpi::Comm {
 public:
  TracedComm(bcs::mpi::Comm& inner, Tracer& tracer, JobTrace& stats, int pid);

  int rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }
  bcs::sim::SimTime now() const override { return inner_.now(); }
  void compute(bcs::sim::Duration work) override;

  void send(const void* buf, std::size_t bytes, int dest, int tag) override;
  void recv(void* buf, std::size_t bytes, int src, int tag,
            bcs::mpi::Status* status) override;
  bcs::mpi::Request isend(const void* buf, std::size_t bytes, int dest,
                          int tag) override;
  bcs::mpi::Request irecv(void* buf, std::size_t bytes, int src,
                          int tag) override;
  void wait(bcs::mpi::Request& r, bcs::mpi::Status* status) override;
  bool test(bcs::mpi::Request& r, bcs::mpi::Status* status) override;
  bool completed(const bcs::mpi::Request& r) const override;
  void waitall(std::span<bcs::mpi::Request> reqs) override;
  bool testall(std::span<bcs::mpi::Request> reqs) override;
  bool probe(int src, int tag, bcs::mpi::Status* status,
             bool blocking) override;

  void barrier() override;
  void bcast(void* buf, std::size_t bytes, int root) override;
  void reduce(const void* contrib, void* result, std::size_t count,
              bcs::mpi::Datatype dt, bcs::mpi::ReduceOp op,
              int root) override;
  void allreduce(const void* contrib, void* result, std::size_t count,
                 bcs::mpi::Datatype dt, bcs::mpi::ReduceOp op) override;

 private:
  template <typename F>
  auto timed(const char* name, bool mpi_call, F&& call) const;

  bcs::mpi::Comm& inner_;
  Tracer& tracer_;
  JobTrace& stats_;
  int pid_;
  int tid_;
};

}  // namespace perfbench
