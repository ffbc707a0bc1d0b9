#pragma once

// Fibers: blocking-style model code on top of the event engine.
//
// Application skeletons (SWEEP3D, NAS kernels, ...) are written as ordinary
// C++ functions that call blocking MPI operations.  Each simulated process
// runs on a Fiber — a user-mode coroutine with its own stack.  resume()
// switches from the caller's stack onto the fiber's and yield() switches
// back; both are a register swap on the calling OS thread, so exactly one of
// {engine, some fiber} executes at any instant by construction, and a fiber
// runs on whichever thread resumes it.  This preserves the determinism of
// the single-threaded engine while letting model code keep a natural call
// stack (deeply nested blocking calls, as in the wavefront codes, would be
// painful as hand-written state machines).
//
// Lifecycle:  the engine resumes a fiber; the fiber runs until it calls
// yield() (typically via Process::block()) or returns; control then returns
// to the engine.  A fiber destroyed before finishing is unwound by throwing
// FiberKilled through its stack.  A fiber never resumed never runs.
//
// Stacks: 8 MiB each with a PROT_NONE guard page below, committed lazily by
// the kernel as the body touches them, so thousands of ranks cost a few
// pages each and an overflow faults on the guard page instead of running
// into a neighbour.  A fiber takes its stack on first resume and hands it
// back when destroyed; released stacks go on a process-wide free list and
// are reused before any new one is mapped, so repeated runs of one job map
// no more stacks than its first.  A reused stack keeps the pages its
// earlier bodies touched.
//
// Switching stacks inside one OS thread imposes two rules on fiber code:
//   * Never yield inside a catch handler, or in a destructor that runs
//     during unwinding.  The C++ runtime keeps one caught-exception stack
//     per OS thread, and the next fiber to run on that thread would push
//     and pop its own handlers on top of this one's.
//   * Never keep a thread_local's address across a yield.  The fiber may
//     come back on another thread, and the compiler may reuse an address
//     it computed before the call.

#include <cstddef>
#include <exception>
#include <functional>

namespace bcs::sim {

/// Thrown through a fiber's stack to unwind it on forced termination.
/// Model code must not swallow this exception (catch(...) blocks must
/// rethrow).
struct FiberKilled {};

class Fiber {
 public:
  /// Creates a fiber that will run `body` once first resumed.
  explicit Fiber(std::function<void()> body);

  /// Force-unwinds the body if unfinished, then releases the stack.
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Runs the fiber until it yields or finishes.  Must be called from
  /// outside the fiber.  Rethrows any exception that escaped the body.
  void resume();

  /// Suspends the calling fiber and returns control to its resumer.
  /// Must be called from inside the fiber body.
  void yield();

  /// True once the body has returned (or was unwound).
  bool finished() const { return finished_; }

  /// Stacks mapped by this process so far, on any thread; never shrinks.
  /// Released stacks are reused first, so it grows only with the peak
  /// number of fibers running at once.
  static std::size_t stacksMapped();

 private:
  [[noreturn]] static void run(Fiber* self);
  void start();
  void switchIn();   // resumer's stack -> fiber's stack
  void switchOut();  // fiber's stack -> resumer's stack

  std::function<void()> body_;
  void* stack_ = nullptr;   ///< mapping: guard page, then the stack
  void* ctx_ = nullptr;     ///< the fiber's saved context while suspended
  void* caller_ = nullptr;  ///< the resumer's saved context while it runs
  bool finished_ = false;
  bool kill_ = false;
  std::exception_ptr error_;
  // Sanitizer bookkeeping; untouched unless built under ASan or TSan.
  void* fake_stack_ = nullptr;
  const void* caller_stack_ = nullptr;
  std::size_t caller_stack_size_ = 0;
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
};

}  // namespace bcs::sim
