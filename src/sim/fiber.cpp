#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <system_error>
#include <utility>
#include <vector>

// x86-64 switches with the hand-written routine below; every other target
// falls back to makecontext/swapcontext, which is portable but makes a
// sigprocmask syscall per switch.  BCS_FIBER_UCONTEXT forces the fallback
// for the test target that keeps it exercised on x86-64 hosts.
#if defined(__x86_64__) && !defined(BCS_FIBER_UCONTEXT)
#define BCS_FIBER_ASM 1
#else
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#if defined(BCS_FIBER_ASM)
// bcs_fiber_switch(save, load): pushes the callee-saved registers, MXCSR and
// the x87 control word, stores rsp to *save, then adopts `load` as rsp and
// pops the same frame off it.  A fresh fiber's first frame (see start())
// returns into bcs_fiber_start, which calls r13(r12) and never returns; its
// `.cfi_undefined rip` ends every unwind at the fiber's entry.
extern "C" void bcs_fiber_switch(void** save, void* load);
extern "C" void bcs_fiber_start();
asm(R"(
  .text
  .p2align 4
  .type bcs_fiber_switch, @function
bcs_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size bcs_fiber_switch, .-bcs_fiber_switch

  .p2align 4
  .type bcs_fiber_start, @function
bcs_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size bcs_fiber_start, .-bcs_fiber_start
)");
#endif

namespace bcs::sim {

namespace {

constexpr std::size_t kStackSize = std::size_t{8} << 20;

std::size_t guardSize() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// Stacks released by dead fibers, reused last-in first-out by the next
// start().  A fiber may die on another thread than the one starting the
// next, hence the lock.  The list never holds more stacks than were live at
// once; it and its stacks live until the process exits, so a fiber
// destroyed during static destruction can still hand its stack back.
struct StackPool {
  std::mutex mutex;
  std::vector<void*> stacks;
  std::size_t mapped = 0;  ///< stacks ever mapped
};

StackPool& stackPool() {
  static StackPool* const pool = new StackPool;
  return *pool;
}

// Kept out of Fiber::start(): makecontext's getcontext returns twice, and
// GCC's -Wclobbered flags the locals of code inlined next to it.
[[gnu::noinline]] void* takeStack() {
  {
    StackPool& pool = stackPool();
    const std::lock_guard<std::mutex> lock(pool.mutex);
    if (!pool.stacks.empty()) {
      void* map = pool.stacks.back();
      pool.stacks.pop_back();
      return map;
    }
  }
  const std::size_t guard = guardSize();
  void* map = mmap(nullptr, guard + kStackSize, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
  if (map == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(), "Fiber stack");
  }
  if (mprotect(map, guard, PROT_NONE) != 0) {
    const int err = errno;
    munmap(map, guard + kStackSize);
    throw std::system_error(err, std::generic_category(), "Fiber guard page");
  }
  StackPool& pool = stackPool();
  const std::lock_guard<std::mutex> lock(pool.mutex);
  ++pool.mapped;
  return map;
}

void releaseStack(void* map) {
  StackPool& pool = stackPool();
  const std::lock_guard<std::mutex> lock(pool.mutex);
  pool.stacks.push_back(map);
}

}  // namespace

std::size_t Fiber::stacksMapped() {
  StackPool& pool = stackPool();
  const std::lock_guard<std::mutex> lock(pool.mutex);
  return pool.mapped;
}

Fiber::Fiber(std::function<void()> body) : body_(std::move(body)) {}

Fiber::~Fiber() {
  if (stack_ == nullptr) return;  // never resumed: the body never ran
  // Unwind an unfinished body: each yield() it reaches throws FiberKilled.
  kill_ = true;
  while (!finished_) switchIn();
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
#if defined(__SANITIZE_ADDRESS__)
  // The frames the fiber never returned from leave their redzones poisoned;
  // the next fiber to run on this stack must not inherit them.
  __asan_unpoison_memory_region(static_cast<char*>(stack_) + guardSize(),
                                kStackSize);
#endif
  releaseStack(stack_);
}

void Fiber::resume() {
  if (finished_) return;
  if (stack_ == nullptr) start();
  switchIn();
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void Fiber::yield() {
  switchOut();
  if (kill_) throw FiberKilled{};
}

void Fiber::run(Fiber* self) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(nullptr, &self->caller_stack_,
                                  &self->caller_stack_size_);
#endif
  try {
    self->body_();
  } catch (const FiberKilled&) {
    // Normal forced unwind; not an error.
  } catch (...) {
    self->error_ = std::current_exception();
  }
  self->finished_ = true;
  self->switchOut();
  std::abort();  // unreachable: a finished fiber is never switched back in
}

void Fiber::start() {
  const std::size_t guard = guardSize();
  void* map = takeStack();
  stack_ = map;
  char* const top = static_cast<char*>(map) + guard + kStackSize;
#if defined(BCS_FIBER_ASM)
  // The frame bcs_fiber_switch pops: MXCSR and x87 control word (inherited
  // from the starting thread), r15, r14, r13 = entry, r12 = this, rbx,
  // rbp = 0 (ends frame-pointer walks), then the return into the stub,
  // which leaves rsp 16-byte aligned at `top` as the call ABI requires.
  std::uint32_t csr[2] = {};
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(csr[0]), "=m"(csr[1]));
  auto* sp = reinterpret_cast<std::uint64_t*>(top) - 8;
  sp[0] = csr[0] | (std::uint64_t{csr[1]} << 32);
  sp[1] = 0;
  sp[2] = 0;
  sp[3] = reinterpret_cast<std::uintptr_t>(&Fiber::run);
  sp[4] = reinterpret_cast<std::uintptr_t>(this);
  sp[5] = 0;
  sp[6] = 0;
  sp[7] = reinterpret_cast<std::uintptr_t>(&bcs_fiber_start);
  ctx_ = sp;
#else
  // The fiber's ucontext_t lives at the top of its own stack mapping.
  auto* uc = reinterpret_cast<ucontext_t*>(top) - 1;
  getcontext(uc);
  uc->uc_stack.ss_sp = static_cast<char*>(map) + guard;
  uc->uc_stack.ss_size = static_cast<std::size_t>(
      reinterpret_cast<char*>(uc) - static_cast<char*>(uc->uc_stack.ss_sp));
  uc->uc_link = nullptr;
  // makecontext passes int arguments only: split the pointer in two.
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(uc,
              reinterpret_cast<void (*)()>(+[](unsigned hi, unsigned lo) {
                Fiber::run(reinterpret_cast<Fiber*>(
                    (std::uintptr_t{hi} << 32) | lo));
              }),
              2, static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self));
  ctx_ = uc;
#endif
#if defined(__SANITIZE_THREAD__)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

void Fiber::switchIn() {
#if defined(__SANITIZE_THREAD__)
  tsan_caller_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if defined(__SANITIZE_ADDRESS__)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(
      &fake_stack, static_cast<char*>(stack_) + guardSize(), kStackSize);
#endif
#if defined(BCS_FIBER_ASM)
  bcs_fiber_switch(&caller_, ctx_);
#else
  ucontext_t here{};  // ASan's swapcontext hook reads its uc_stack
  caller_ = &here;
  swapcontext(&here, static_cast<ucontext_t*>(ctx_));
#endif
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

void Fiber::switchOut() {
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
#if defined(__SANITIZE_ADDRESS__)
  // Leaving a finished fiber for good: a null save lets ASan free its fake
  // stack.
  __sanitizer_start_switch_fiber(finished_ ? nullptr : &fake_stack_,
                                 caller_stack_, caller_stack_size_);
#endif
#if defined(BCS_FIBER_ASM)
  bcs_fiber_switch(&ctx_, caller_);
#else
  swapcontext(static_cast<ucontext_t*>(ctx_),
              static_cast<ucontext_t*>(caller_));
#endif
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack_, &caller_stack_,
                                  &caller_stack_size_);
#endif
}

}  // namespace bcs::sim
