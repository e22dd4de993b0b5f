#include "sim/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <utility>
#include <vector>

extern "C" {
// Defined in context.S.
void tcc_ctx_swap(void** save_sp, void* restore_sp);
void tcc_fiber_entry_thunk();

// Called (via the thunk) on the fiber's own stack at first activation.
void tcc_fiber_entry(sim::Fiber* f);
}

// Sanitizer interop.  The hand-rolled switch in context.S moves %rsp
// between mmap'd stacks behind the sanitizers' backs.  Without annotations
// TSan sees one thread's shadow stack teleport and reports wild races (or
// crashes), and ASan's fake-stack / stack-bounds bookkeeping desyncs, which
// surfaces as bogus stack-buffer-overflow reports from interceptors once a
// fiber recurses deeply.  Both runtimes ship a fiber API for exactly this:
// TSan's __tsan_{create,destroy,switch_to}_fiber registers each stack as a
// distinct context, and ASan's __sanitizer_{start,finish}_switch_fiber
// hands over the fake stack and real stack bounds across every switch.
// Detection covers GCC (__SANITIZE_*) and Clang (__has_feature).
#if defined(__SANITIZE_THREAD__)
#define TCC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TCC_TSAN 1
#endif
#endif

#if defined(__SANITIZE_ADDRESS__)
#define TCC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TCC_ASAN 1
#endif
#endif

#if defined(TCC_TSAN)
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

#if defined(TCC_ASAN)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     size_t* size_old);
void __asan_unpoison_memory_region(void const volatile* addr, size_t size);
}
#endif

namespace {
inline void* tsan_this_fiber() {
#if defined(TCC_TSAN)
  return __tsan_get_current_fiber();
#else
  return nullptr;
#endif
}
inline void* tsan_new_fiber() {
#if defined(TCC_TSAN)
  return __tsan_create_fiber(0);
#else
  return nullptr;
#endif
}
inline void tsan_free_fiber(void* f) {
#if defined(TCC_TSAN)
  if (f != nullptr) __tsan_destroy_fiber(f);
#else
  (void)f;
#endif
}
inline void tsan_switch(void* f) {
#if defined(TCC_TSAN)
  if (f != nullptr) __tsan_switch_to_fiber(f, 0);
#else
  (void)f;
#endif
}
// Announce a switch to the stack [bottom, bottom+size).  `save` receives the
// departing context's fake stack; pass nullptr when that context is exiting
// for good (its fake stack is then torn down).
inline void asan_start_switch(void** save, const void* bottom,
                              std::size_t size) {
#if defined(TCC_ASAN)
  __sanitizer_start_switch_fiber(save, bottom, size);
#else
  (void)save;
  (void)bottom;
  (void)size;
#endif
}
// Complete a switch on arrival: reinstall this context's fake stack and
// optionally learn the bounds of the stack we came from.
inline void asan_finish_switch(void* save, const void** bottom_old,
                               std::size_t* size_old) {
#if defined(TCC_ASAN)
  __sanitizer_finish_switch_fiber(save, bottom_old, size_old);
#else
  (void)save;
  (void)bottom_old;
  (void)size_old;
#endif
}
}  // namespace

// Itanium C++ ABI exception-handling globals (one per host thread).  We swap
// their contents per fiber so exceptions thrown/caught on different fiber
// stacks never interleave.  Layout per the ABI; __cxa_get_globals is
// provided by libstdc++/libsupc++.
namespace __cxxabiv1 {
struct __cxa_eh_globals {
  void* caughtExceptions;
  unsigned int uncaughtExceptions;
};
extern "C" __cxa_eh_globals* __cxa_get_globals() noexcept;
}  // namespace __cxxabiv1

namespace sim {

// Thread-local switch plumbing.  Everything a fiber needs to leave for (or
// arrive from) the main context lives here, so a fiber that was entered by
// one context can exit toward another: with direct fiber->fiber transfers,
// the fiber that finally yields to main is usually NOT the one main resumed.
struct FiberCtx {
  // --- the main (scheduler) context, parked while a fiber runs ---
  void* main_sp = nullptr;
  Fiber::EhGlobals main_eh{};
  void* main_tsan = nullptr;               // captured at first resume()
  void* main_asan_fake = nullptr;
  const void* main_asan_bottom = nullptr;  // learned at the first arrival
  std::size_t main_asan_size = 0;          //   ...from main (ASan only)
  bool switch_from_main = false;           // who initiated the last switch

  Fiber* current = nullptr;

  // --- per-thread stack free list ---
  struct StackBlock {
    void* mem;
    std::size_t map_bytes;
  };
  std::vector<StackBlock> stack_pool;

  ~FiberCtx() {
    for (const StackBlock& b : stack_pool) ::munmap(b.mem, b.map_bytes);
  }
};

namespace {

thread_local FiberCtx g_ctx;

// Keep idle pooled stacks bounded: enough for one full-width Engine plus
// headroom; beyond that, stacks are really unmapped.
constexpr std::size_t kStackPoolCap = 192;

thread_local std::uint64_t g_stack_pool_hits = 0;
thread_local std::uint64_t g_stack_pool_misses = 0;

// __cxa_get_globals returns a fixed per-thread address; cache it so the two
// EH-globals swaps per switch don't each pay an external libsupc++ call.
inline void* eh_globals_addr() {
  thread_local void* p = __cxxabiv1::__cxa_get_globals();
  return p;
}

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

// Completes a switch on arrival in a fiber (first activation or re-entry):
// reinstalls its ASan fake stack, and — exactly once per host thread — learns
// the main stack's bounds if the switch originated there (a fiber entered by
// transfer_to learns nothing: the initiator's bounds are already known).
inline void finish_arrival_in_fiber(void* fake_save) {
#if defined(TCC_ASAN)
  const void* from_bottom = nullptr;
  std::size_t from_size = 0;
  asan_finish_switch(fake_save, &from_bottom, &from_size);
  if (g_ctx.switch_from_main && g_ctx.main_asan_bottom == nullptr) {
    g_ctx.main_asan_bottom = from_bottom;
    g_ctx.main_asan_size = from_size;
  }
#else
  (void)fake_save;
#endif
}

}  // namespace

StackPoolStats stack_pool_stats() { return {g_stack_pool_hits, g_stack_pool_misses}; }

Fiber* Fiber::current() noexcept { return g_ctx.current; }

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes)
    : body_(std::move(body)) {
  const std::size_t ps = page_size();
  const std::size_t usable = round_up(stack_bytes, ps);
  map_bytes_ = usable + ps;  // one guard page below the stack

  // Reuse a pooled stack of the right size when one is free: its guard page
  // is already protected and its hot pages already faulted in.
  void* mem = nullptr;
  auto& pool = g_ctx.stack_pool;
  for (std::size_t i = pool.size(); i-- > 0;) {
    if (pool[i].map_bytes == map_bytes_) {
      mem = pool[i].mem;
      pool[i] = pool.back();
      pool.pop_back();
#if defined(TCC_ASAN)
      // A finished fiber's deepest frames never return, so their redzones
      // stay poisoned in shadow memory.  A fresh mmap has clean shadow; a
      // recycled stack must be scrubbed or the next fiber's first frames
      // land on stale poison.
      __asan_unpoison_memory_region(static_cast<char*>(mem) + ps,
                                    map_bytes_ - ps);
#endif
      ++g_stack_pool_hits;
      break;
    }
  }
  if (mem == nullptr) {
    ++g_stack_pool_misses;
    mem = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) throw std::runtime_error("Fiber: mmap failed");
    if (::mprotect(mem, ps, PROT_NONE) != 0) {
      ::munmap(mem, map_bytes_);
      throw std::runtime_error("Fiber: mprotect failed");
    }
  }
  stack_mem_ = mem;
  stack_bottom_ = static_cast<const char*>(mem) + ps;
  stack_size_ = usable;

  // Seed the initial frame at the top of the stack: six callee-saved slots
  // (r15 r14 r13 r12 rbx rbp, in pop order) then the thunk's address as the
  // return target of tcc_ctx_swap's final `ret`.
  auto top = reinterpret_cast<std::uintptr_t>(mem) + map_bytes_;
  top &= ~static_cast<std::uintptr_t>(15);  // 16-byte align
  auto* sp = reinterpret_cast<std::uintptr_t*>(top);
  *--sp = reinterpret_cast<std::uintptr_t>(&tcc_fiber_entry_thunk);  // ret target
  *--sp = 0;                                       // rbp
  *--sp = 0;                                       // rbx
  *--sp = reinterpret_cast<std::uintptr_t>(this);  // r12 -> Fiber*
  *--sp = 0;                                       // r13
  *--sp = 0;                                       // r14
  *--sp = 0;                                       // r15
  fiber_sp_ = sp;

  tsan_fiber_ = tsan_new_fiber();
}

Fiber::~Fiber() {
  if (started_ && !finished_) {
    // Destroying a suspended fiber would leak whatever RAII state its stack
    // holds; the simulator always runs fibers to completion, so treat this
    // as a usage error rather than trying to unwind a foreign stack.
    std::fprintf(stderr, "sim::Fiber destroyed while suspended; aborting\n");
    std::abort();
  }
  tsan_free_fiber(tsan_fiber_);
  if (stack_mem_ != nullptr) {
#if defined(TCC_ASAN)
    // Scrub the shadow before the stack leaves our hands, poolward or back
    // to the kernel: munmap does not clear shadow memory, so a still-
    // poisoned mapping handed back here would leak stale poison into
    // whatever mmap lands on the same address next — including a brand-new
    // stack on a different host thread.
    __asan_unpoison_memory_region(stack_bottom_, stack_size_);
#endif
    auto& pool = g_ctx.stack_pool;
    if (pool.size() < kStackPoolCap) {
      pool.push_back(FiberCtx::StackBlock{stack_mem_, map_bytes_});
    } else {
      ::munmap(stack_mem_, map_bytes_);
    }
  }
}

void Fiber::resume() {
  if (finished_) throw std::logic_error("Fiber::resume on finished fiber");
  if (g_ctx.current != nullptr)
    throw std::logic_error("Fiber::resume must be called from the main context");
  started_ = true;
  g_ctx.current = this;
  // Install the fiber's exception-handling globals, parking main's.
  auto* eh = reinterpret_cast<EhGlobals*>(eh_globals_addr());
  g_ctx.main_eh = *eh;
  *eh = eh_state_;
  if (g_ctx.main_tsan == nullptr) g_ctx.main_tsan = tsan_this_fiber();
  tsan_switch(tsan_fiber_);
  g_ctx.switch_from_main = true;
  asan_start_switch(&g_ctx.main_asan_fake, stack_bottom_, stack_size_);
  tcc_ctx_swap(&g_ctx.main_sp, fiber_sp_);
  // Back in main.  Whichever fiber yielded (or finished) last has already
  // restored main's EH globals and announced the TSan/ASan switch.
  asan_finish_switch(g_ctx.main_asan_fake, nullptr, nullptr);
  g_ctx.current = nullptr;
}

void Fiber::yield() {
  Fiber* self = g_ctx.current;
  if (self == nullptr) throw std::logic_error("Fiber::yield outside a fiber");
  auto* eh = reinterpret_cast<EhGlobals*>(eh_globals_addr());
  self->eh_state_ = *eh;
  *eh = g_ctx.main_eh;
  tsan_switch(g_ctx.main_tsan);
  g_ctx.switch_from_main = false;
  asan_start_switch(&self->asan_fake_stack_, g_ctx.main_asan_bottom,
                    g_ctx.main_asan_size);
  tcc_ctx_swap(&self->fiber_sp_, g_ctx.main_sp);
  // Re-entered (by resume() or a transfer_to() targeting us).
  finish_arrival_in_fiber(self->asan_fake_stack_);
}

void Fiber::transfer_to(Fiber& next) {
  Fiber* self = g_ctx.current;
  if (self == nullptr)
    throw std::logic_error("Fiber::transfer_to outside a fiber");
  if (&next == self || next.finished_)
    throw std::logic_error("Fiber::transfer_to: bad target fiber");
  next.started_ = true;
  g_ctx.current = &next;
  auto* eh = reinterpret_cast<EhGlobals*>(eh_globals_addr());
  self->eh_state_ = *eh;
  *eh = next.eh_state_;
  tsan_switch(next.tsan_fiber_);
  g_ctx.switch_from_main = false;
  asan_start_switch(&self->asan_fake_stack_, next.stack_bottom_,
                    next.stack_size_);
  tcc_ctx_swap(&self->fiber_sp_, next.fiber_sp_);
  // Re-entered (by resume() or a transfer_to() targeting us).
  finish_arrival_in_fiber(self->asan_fake_stack_);
}

void Fiber::run_body() noexcept {
  // First activation: complete the switch begun by resume()/transfer_to().
  // The seeded frame has no saved fake stack, so pass the field (still
  // nullptr) — later re-entries reinstall the one saved at suspension.
  finish_arrival_in_fiber(asan_fake_stack_);
  try {
    body_();
  } catch (const FiberKilled&) {
    // Forced termination requested by the scheduler: unwound cleanly.
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: exception escaped fiber body: %s\n", e.what());
    std::abort();
  } catch (...) {
    std::fprintf(stderr, "fatal: unknown exception escaped fiber body\n");
    std::abort();
  }
  finished_ = true;
  // Return to the main context for the last time (finishing fibers never
  // transfer directly: the scheduler's bookkeeping runs in main).
  auto* eh = reinterpret_cast<EhGlobals*>(eh_globals_addr());
  *eh = g_ctx.main_eh;  // our own EH state is dead; restore main's
  tsan_switch(g_ctx.main_tsan);
  // nullptr save: this fiber never runs again, so its fake stack can go.
  asan_start_switch(nullptr, g_ctx.main_asan_bottom, g_ctx.main_asan_size);
  tcc_ctx_swap(&fiber_sp_, g_ctx.main_sp);
  std::abort();  // unreachable: nobody may resume a finished fiber
}

}  // namespace sim

extern "C" void tcc_fiber_entry(sim::Fiber* f) { f->run_body(); }
