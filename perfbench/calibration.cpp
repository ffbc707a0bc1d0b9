#include "calibration.hpp"

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory_resource>
#include <mutex>
#include <thread>

#include "jobs.hpp"

namespace perfbench {

namespace {

constexpr int kTreeOps = 20000;
constexpr std::uint64_t kTreeKeys = 20000;
constexpr int kHandOffs = 1000;

volatile std::uint64_t g_sink = 0;

/// Inserts, updates and erases keys of a tree of up to kTreeKeys entries,
/// whose nodes come from a pool kept across calls.
void treeChurn() {
  static std::pmr::unsynchronized_pool_resource pool;
  std::pmr::map<std::uint64_t, std::uint64_t> tree(&pool);
  std::uint64_t x = 7;
  for (int i = 0; i < kTreeOps; ++i) {
    x = x * 6364136223846793005ULL + 1;
    tree[x % kTreeKeys] += static_cast<std::uint64_t>(i);
    if (i % 3 == 0) tree.erase((x >> 20) % kTreeKeys);
  }
  g_sink = tree.size();
}

/// Hands a baton back and forth between this thread and a partner through
/// one mutex and condition variable.  Both threads share the pinned CPU, so
/// every hand-off is a context switch.
void handOffs() {
  std::mutex mu;
  int turn = 0;  ///< guarded by mu: 1 = the partner's turn
  std::condition_variable cv;
  std::thread partner([&] {
    for (int i = 0; i < kHandOffs; ++i) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return turn == 1; });
      turn = 0;
      cv.notify_one();
    }
  });
  for (int i = 0; i < kHandOffs; ++i) {
    std::unique_lock<std::mutex> lock(mu);
    turn = 1;
    cv.notify_one();
    cv.wait(lock, [&] { return turn == 0; });
  }
  partner.join();
}

double calibrationLoopS() {
  const Clock::time_point start = Clock::now();
  treeChurn();
  handOffs();
  return secondsBetween(start, Clock::now());
}

/// The helper's main loop: one loop per request byte, until end of file.
[[noreturn]] void serve(int request_fd, int reply_fd) {
  char request = 0;
  while (read(request_fd, &request, 1) == 1) {
    const double s = calibrationLoopS();
    if (write(reply_fd, &s, sizeof s) != sizeof s) _exit(1);
  }
  _exit(0);
}

[[noreturn]] void helperFailed(const char* what) {
  std::fprintf(stderr, "perfbench: calibration helper: %s: %s\n", what,
               std::strerror(errno));
  std::exit(1);
}

}  // namespace

Calibrator::Calibrator() {
  int request[2];
  int reply[2];
  if (pipe(request) != 0 || pipe(reply) != 0) helperFailed("pipe");
  const pid_t parent = getpid();
  std::fflush(nullptr);
  pid_ = fork();
  if (pid_ < 0) helperFailed("fork");
  if (pid_ == 0) {
    // The helper dies with the benchmark, however the benchmark ends.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(0);
    close(request[1]);
    close(reply[0]);
    serve(request[0], reply[1]);
  }
  close(request[0]);
  close(reply[1]);
  request_fd_ = request[1];
  reply_fd_ = reply[0];
}

Calibrator::~Calibrator() {
  close(request_fd_);
  close(reply_fd_);
  while (waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
}

double Calibrator::loopS() {
  const char request = 1;
  if (write(request_fd_, &request, 1) != 1) helperFailed("write");
  double s = 0;
  if (read(reply_fd_, &s, sizeof s) != sizeof s) helperFailed("read");
  return s;
}

HostSpeed::HostSpeed(Calibrator& calibrator) : calibrator_(calibrator) {
  calibrations_s_.push_back(calibrator_.loopS());
}

double HostSpeed::scale(double stretch_s) {
  const double before = calibrations_s_.back();
  calibrations_s_.push_back(calibrator_.loopS());
  const double around = 0.5 * (before + calibrations_s_.back());
  return stretch_s * kCalibrationRefS / around;
}

double HostSpeed::medianCalibrationS() const {
  std::vector<double> v = calibrations_s_;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

}  // namespace perfbench
