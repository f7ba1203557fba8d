// Small-buffer move-only callable.
//
// The simulation engine stores every scheduled event as one (sim::EventFn is
// MoveFn<void(), 48>), and the protocol layers hold one completion callback
// per in-flight request (reply handlers, unlock continuations).
// std::function heap-allocates for any capture larger than two pointers and
// requires copyability, which both forces shared_ptr dances for move-only
// captures and puts an allocator round-trip on the steady-state request
// path. MoveFn<R(Args...)> keeps a configurable inline buffer (default 64
// bytes — a this-pointer plus a few ids and a moved callback), is move-only
// so captures are never copied, and falls back to the heap transparently for
// oversized callables. The buffer is pointer-aligned, which every capture
// of pointers, ids and containers needs; a callable aligned more strictly
// takes the heap path too. So MoveFn<F, 48> is 56 bytes, and an engine
// slot with its generation and free-list link fills one 64-byte line.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace stank {

template <typename Signature, std::size_t InlineSize = 64>
class MoveFn;

template <typename R, typename... Args, std::size_t InlineSize>
class MoveFn<R(Args...), InlineSize> {
 public:
  static constexpr std::size_t kInlineSize = InlineSize;

  MoveFn() = default;
  MoveFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, MoveFn> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  MoveFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(void*) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  MoveFn(MoveFn&& other) noexcept { move_from(other); }
  MoveFn& operator=(MoveFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  MoveFn(const MoveFn&) = delete;
  MoveFn& operator=(const MoveFn&) = delete;
  ~MoveFn() { reset(); }

  R operator()(Args... args) { return ops_->invoke(buf_, std::forward<Args>(args)...); }

  // Invokes and destroys the stored callable in one indirect call, leaving
  // this MoveFn null. Precondition: non-null. The engine's step() uses this
  // so firing an event costs a single indirect call.
  void consume(Args... args)
    requires std::is_void_v<R>
  {
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->consume(buf_, std::forward<Args>(args)...);
  }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }
  friend bool operator==(const MoveFn& f, std::nullptr_t) { return f.ops_ == nullptr; }

 private:
  struct Ops {
    R (*invoke)(void* buf, Args&&... args);
    void (*destroy)(void* buf);
    void (*consume)(void* buf, Args&&... args);  // invoke, then destroy
    // Move-constructs dst's storage from src's and destroys src's.
    void (*relocate)(void* dst, void* src);
  };

  template <typename Fn>
  struct InlineOps {
    static R invoke(void* b, Args&&... args) {
      return (*std::launder(static_cast<Fn*>(b)))(std::forward<Args>(args)...);
    }
    static void destroy(void* b) { std::launder(static_cast<Fn*>(b))->~Fn(); }
    static void consume(void* b, Args&&... args) {
      Fn* f = std::launder(static_cast<Fn*>(b));
      (*f)(std::forward<Args>(args)...);
      f->~Fn();
    }
    static void relocate(void* dst, void* src) {
      Fn* s = std::launder(static_cast<Fn*>(src));
      ::new (dst) Fn(std::move(*s));
      s->~Fn();
    }
    static constexpr Ops ops{&invoke, &destroy, &consume, &relocate};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* ptr(void* b) { return *std::launder(static_cast<Fn**>(b)); }
    static R invoke(void* b, Args&&... args) { return (*ptr(b))(std::forward<Args>(args)...); }
    static void destroy(void* b) { delete ptr(b); }
    static void consume(void* b, Args&&... args) {
      Fn* p = ptr(b);
      (*p)(std::forward<Args>(args)...);
      delete p;
    }
    static void relocate(void* dst, void* src) { ::new (dst) Fn*(ptr(src)); }
    static constexpr Ops ops{&invoke, &destroy, &consume, &relocate};
  };

  void move_from(MoveFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(void*) unsigned char buf_[kInlineSize];
  const Ops* ops_{nullptr};
};

}  // namespace stank
