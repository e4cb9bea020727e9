#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "core/check.hpp"

namespace mci::sim {

/// Move-only `void()` callable with fixed inline storage and no heap
/// fallback: the event-kernel replacement for `std::function<void()>`.
///
/// Every simulated event and link-delivery callback flows through one of
/// these, so the type is deliberately austere:
///   * Captures must fit kCapacity bytes and be nothrow-move-constructible;
///     oversized or misaligned callables are rejected at compile time (the
///     constructor does not participate in overload resolution, so
///     `std::is_constructible_v<InlineFn, F>` is the capacity probe the
///     tests use).
///   * No small-buffer/heap split means construction, move, and destruction
///     never allocate — which is what lets EventQueue's node pool promise
///     zero steady-state allocations per event.
///   * Move-only: events fire exactly once; copying a callback is always a
///     bug in this codebase.
class InlineFn {
 public:
  /// Inline storage for the erased callable. 64 bytes holds every capture
  /// in the simulator (the largest are the CheckMessage/ValidityReply
  /// delivery closures at exactly 64) and keeps an event-queue slot within
  /// two cache lines.
  static constexpr std::size_t kCapacity = 64;
  static constexpr std::size_t kAlignment = alignof(std::max_align_t);

  /// True iff `F` can be stored: the constructor accepts exactly these.
  template <typename F>
  static constexpr bool fits =
      sizeof(F) <= kCapacity && alignof(F) <= kAlignment &&
      std::is_nothrow_move_constructible_v<F> && std::is_invocable_r_v<void, F&>;

  InlineFn() noexcept = default;

  template <typename F, typename D = std::remove_cvref_t<F>>
    requires(!std::is_same_v<D, InlineFn> && fits<D>)
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function
  InlineFn(F&& f) noexcept(std::is_nothrow_constructible_v<D, F&&>)
      : ops_(&opsFor<D>()) {
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
  }

  InlineFn(InlineFn&& other) noexcept { stealFrom(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      stealFrom(other);
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  /// Invokes the stored callable. Precondition: engaged.
  void operator()() {
    MCI_DCHECK(ops_ != nullptr) << "invoking an empty InlineFn";
    ops_->invoke(storage_);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// Destroys the stored callable (if any), leaving *this empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* src, void* dst) noexcept;  // move + destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static const Ops& opsFor() {
    static constexpr Ops ops{
        [](void* p) { (*static_cast<D*>(p))(); },
        [](void* src, void* dst) noexcept {
          ::new (dst) D(std::move(*static_cast<D*>(src)));
          static_cast<D*>(src)->~D();
        },
        [](void* p) noexcept { static_cast<D*>(p)->~D(); },
    };
    return ops;
  }

  void stealFrom(InlineFn& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.storage_, storage_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(kAlignment) unsigned char storage_[kCapacity];
};

}  // namespace mci::sim
