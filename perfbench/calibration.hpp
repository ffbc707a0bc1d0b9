#pragma once

// Host-speed calibration for the end-to-end times.
//
// On a virtual machine that shares physical cores with other tenants, every
// workload can run up to 2.5x slower for seconds to minutes at a time, with
// no steal time reported (measured on a 4-vCPU Intel Xeon KVM guest).  Raw
// host seconds of the same code then spread far wider between runs than
// any useful regression bound.  The calibration loop is a fixed piece of
// work that slows down with the workloads: lookups and updates of an
// L2-sized red-black tree, and a mutex + condition variable hand-off between
// two threads on the pinned CPU (the mechanism of a sim::Fiber switch).
//
// The loop runs in a helper process forked before the benchmark starts any
// thread, pinned to the same CPU.  It shares no code, heap or threads with
// the simulator: a thread hand-off costs more in a process with 2,048 fiber
// threads than in one with two, so a loop run inside the benchmark process
// would move with the simulator's own design.
//
// A job's host time is cut into stretches of about kStretchS, with one
// calibration between stretches, and each stretch is scaled by
// kCalibrationRefS over the mean of the calibrations on either side of it.
// The sum is the job's time at the reference host speed.

#include <sys/types.h>

#include <vector>

namespace perfbench {

/// The calibration loop's time on an uncontended host: about the fastest
/// it ran on a 4-vCPU Intel Xeon (Sapphire Rapids) KVM guest.
inline constexpr double kCalibrationRefS = 0.010;

/// Host seconds of workload between two calibrations.
inline constexpr double kStretchS = 0.25;

/// The helper process that runs the calibration loop.
class Calibrator {
 public:
  /// Forks the helper.  Call it before this process starts any thread;
  /// exits the program if the helper cannot be started.
  Calibrator();
  /// Stops the helper and waits until it has ended.
  ~Calibrator();
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;

  /// Runs the loop once in the helper and returns its host seconds, while
  /// this process waits.  Exits the program if the helper has gone.
  double loopS();

 private:
  int request_fd_ = -1;
  int reply_fd_ = -1;
  pid_t pid_ = -1;
};

/// Scales stretches of host time to the reference host speed.
class HostSpeed {
 public:
  /// Runs the first calibration.
  explicit HostSpeed(Calibrator& calibrator);

  /// `stretch_s` host seconds of workload ended just now: calibrates again
  /// and returns the stretch at the reference speed.
  double scale(double stretch_s);

  /// Median of the calibrations so far, in host seconds.
  double medianCalibrationS() const;

 private:
  Calibrator& calibrator_;
  std::vector<double> calibrations_s_;
};

}  // namespace perfbench
