// Software prefetch hints for the simulator's own host memory stalls.
//
// They only move cache lines: a prefetch never faults, changes no value and
// is never counted, so simulated results cannot depend on whether it ran.
#pragma once

namespace sepo {

// Fetches the cache line holding `p` for reading, into every cache level.
inline void prefetch_for_read(const void* p) noexcept {
  __builtin_prefetch(p, 0, 3);
}

// Fetches the cache line holding `p` in a writable state, for a line the
// caller is about to modify (e.g. take a lock in). Without a -march that
// enables PRFCHW, GCC lowers __builtin_prefetch(p, 1) to a plain read
// prefetch, so x86-64 issues PREFETCHW directly; processors without it
// execute the instruction as a no-op.
inline void prefetch_for_write(const void* p) noexcept {
#if defined(__x86_64__) && !defined(__PRFCHW__)
  asm volatile("prefetchw %0" : : "m"(*static_cast<const char*>(p)));
#else
  __builtin_prefetch(p, 1, 3);
#endif
}

}  // namespace sepo
