#pragma once

// Move-only type-erased callable with a small-buffer slot.
//
// InlineFunction<R(Args...)> is the simulator's std::function replacement on
// hot paths: engine events (EventCallback = InlineFunction<void()>), fabric
// delivery callbacks and the BCS core's Xfer-And-Signal / Compare-And-Write
// completions.  Callables up to kInlineBytes (alignment <= kInlineAlign)
// that are nothrow-move-constructible are stored in place; anything larger
// falls back to one heap allocation.  Being move-only, it can hold
// move-only captures, and an InlineFunction handed to another of the same
// signature is moved, never wrapped — so an EventCallback travels from a
// fabric caller into an engine node without a second type-erasure layer.

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace bcs::sim {

template <typename Signature>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  /// Sized so an engine event node (callback + handle state) is exactly one
  /// 64-byte cache line.
  static constexpr std::size_t kInlineBytes = 40;
  static constexpr std::size_t kInlineAlign = 8;

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT: empty, like std::function

  template <typename Fn,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<Fn>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<Fn>&, Args...>>>
  InlineFunction(Fn&& fn) {  // NOLINT: implicit, like std::function
    emplace(std::forward<Fn>(fn));
  }

  InlineFunction(InlineFunction&& o) noexcept { moveFrom(o); }
  InlineFunction& operator=(InlineFunction&& o) noexcept {
    if (this != &o) {
      reset();
      moveFrom(o);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  /// Replaces the target.  Another InlineFunction of this signature is
  /// moved in, not wrapped.
  template <typename Fn>
  void emplace(Fn&& fn) {
    using F = std::decay_t<Fn>;
    if constexpr (std::is_same_v<F, InlineFunction>) {
      *this = std::move(fn);
    } else {
      reset();
      if constexpr (sizeof(F) <= kInlineBytes && alignof(F) <= kInlineAlign &&
                    std::is_nothrow_move_constructible_v<F>) {
        ::new (static_cast<void*>(storage_)) F(std::forward<Fn>(fn));
        vt_ = &kInlineVTable<F>;
      } else {
        heap_ = new F(std::forward<Fn>(fn));
        vt_ = &kHeapVTable<F>;
      }
    }
  }

  explicit operator bool() const { return vt_ != nullptr; }

  R operator()(Args... args) const {
    return vt_->invoke(object(), std::forward<Args>(args)...);
  }

  /// Invokes the callable, then destroys it, through a single fused vtable
  /// entry (one indirect call instead of two on the per-event hot path).
  /// Leaves this empty, whether the call returns or throws.
  R invokeAndReset(Args... args) {
    const VTable* vt = vt_;
    void* obj = object();
    vt_ = nullptr;
    heap_ = nullptr;
    return vt->invoke_destroy(obj, std::forward<Args>(args)...);
  }

  void reset() {
    if (!vt_) return;
    vt_->destroy(object());
    vt_ = nullptr;
    heap_ = nullptr;
  }

 private:
  struct VTable {
    R (*invoke)(void*, Args&&...);
    R (*invoke_destroy)(void*, Args&&...);  ///< fused call-then-destroy
    void (*destroy)(void*);
    /// Move-construct dst from src, then destroy src.  Null for heap-stored
    /// callables (moves just steal the pointer).
    void (*relocate)(void* dst, void* src);
  };

  template <typename F>
  static R invokeFn(void* p, Args&&... args) {
    return (*static_cast<F*>(p))(std::forward<Args>(args)...);
  }
  template <typename F>
  static R invokeDestroyInline(void* p, Args&&... args) {
    struct Destroy {
      F* f;
      ~Destroy() { f->~F(); }
    } destroy{static_cast<F*>(p)};
    return (*destroy.f)(std::forward<Args>(args)...);
  }
  template <typename F>
  static R invokeDestroyHeap(void* p, Args&&... args) {
    const std::unique_ptr<F> f(static_cast<F*>(p));
    return (*f)(std::forward<Args>(args)...);
  }
  template <typename F>
  static void destroyInline(void* p) {
    static_cast<F*>(p)->~F();
  }
  template <typename F>
  static void destroyHeap(void* p) {
    delete static_cast<F*>(p);
  }
  template <typename F>
  static void relocateFn(void* dst, void* src) {
    ::new (dst) F(std::move(*static_cast<F*>(src)));
    static_cast<F*>(src)->~F();
  }

  template <typename F>
  static constexpr VTable kInlineVTable{&invokeFn<F>, &invokeDestroyInline<F>,
                                        &destroyInline<F>, &relocateFn<F>};
  template <typename F>
  static constexpr VTable kHeapVTable{&invokeFn<F>, &invokeDestroyHeap<F>,
                                      &destroyHeap<F>, nullptr};

  void* object() const {
    return vt_ && vt_->relocate ? const_cast<unsigned char*>(storage_)
                                : heap_;
  }

  void moveFrom(InlineFunction& o) noexcept {
    vt_ = o.vt_;
    if (!vt_) return;
    if (vt_->relocate) {
      vt_->relocate(storage_, o.storage_);
    } else {
      heap_ = o.heap_;
      o.heap_ = nullptr;
    }
    o.vt_ = nullptr;
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineBytes];
  void* heap_ = nullptr;
  const VTable* vt_ = nullptr;
};

}  // namespace bcs::sim
