// Allocation accounting for the DES hot path.  The PR 2 acceptance bar is
// ZERO heap allocations per steady-state packet event: callbacks live
// inline in pooled scheduler slots, the link transmit loop re-arms one
// recurring event, and delivery closures ([handler*, Packet]) fit
// SmallCallback's inline buffer.  This binary replaces global operator
// new/delete with counting versions and asserts the count stays flat over
// a long steady-state window after warm-up + reserve() calls.
//
// Must be its own test binary: the counting allocator is process-global.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "obs/trace.hpp"
#include "sim/callback.hpp"
#include "sim/path.hpp"
#include "sim/simulator.hpp"

// Sanitizers interpose their own allocator; counting through a user
// replacement is not reliable there, so the steady-state assertions skip.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ABW_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ABW_SANITIZED 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// noinline: inlined std::free under `new T` trips -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace abw::sim;

std::uint64_t alloc_count() { return g_news.load(std::memory_order_relaxed); }

TEST(Allocation, SmallCallbackStoresHotPathCapturesInline) {
  // The real delivery closure: a handler pointer plus a 48-byte Packet.
  struct Delivery {
    PacketHandler* next;
    Packet pkt;
    void operator()() {}
  };
  static_assert(sizeof(Delivery) <= SmallCallback::kInlineSize,
                "delivery closures must fit inline (see packet.hpp)");
  SmallCallback cb;
  std::uint64_t before = alloc_count();
  cb.emplace(Delivery{nullptr, Packet{}});
  cb();
  cb.clear();
  EXPECT_EQ(alloc_count(), before) << "inline capture must not allocate";

  // An oversized capture falls back to the heap — exactly one allocation.
  struct Big {
    char bytes[SmallCallback::kInlineSize + 8];
    void operator()() {}
  };
  before = alloc_count();
  cb.emplace(Big{});
  EXPECT_EQ(alloc_count(), before + 1);
  cb.clear();
}

// A packet-forwarding simulation in steady state: a self-rescheduling
// injector paced at the bottleneck service rate through a two-hop path
// with propagation delays.  After a warm-up phase (pool/chunk growth,
// first-touch) and explicit reserve() calls, running thousands more
// packets must perform ZERO heap allocations.
TEST(Allocation, SteadyStatePacketEventsAreAllocationFree) {
#ifdef ABW_SANITIZED
  GTEST_SKIP() << "sanitizer build: allocator interposed";
#else
  Simulator simu;
  LinkConfig fast, tight;
  fast.capacity_bps = 1e9;
  fast.propagation_delay = 100;
  tight.capacity_bps = 5e8;  // 1500 B service time = 24 us
  tight.propagation_delay = 100;
  Path path(simu, {fast, tight});
  CountingSink sink;
  path.set_receiver(&sink);

  struct Injector {
    Simulator* simu;
    Path* path;
    void operator()() {
      Packet pkt;
      pkt.size_bytes = 1500;
      path->inject(0, pkt);
      simu->after(24000, *this);  // bottleneck pace: back-to-back service
    }
  };
  simu.at(0, Injector{&simu, &path});

  // Warm-up: grow the slot pool, ring queues, and meter storage.
  simu.run_until(200 * 24000);
  simu.reserve_events(64);
  for (std::size_t i = 0; i < path.hop_count(); ++i) {
    path.link(i).reserve_queue(64);
    // The fast link idles between packets, so every transmission is its
    // own (non-coalesced) meter interval: size for the full run.
    path.link(i).meter().reserve(16384);
  }

  const std::uint64_t events_before = simu.events_processed();
  const std::uint64_t before = alloc_count();
  simu.run_until(5000 * 24000);
  const std::uint64_t after = alloc_count();
  const std::uint64_t events = simu.events_processed() - events_before;

  EXPECT_GT(events, 10000u) << "steady-state window too small to be meaningful";
  EXPECT_EQ(after, before) << "hot path allocated " << (after - before)
                           << " times over " << events << " events";
  EXPECT_GT(sink.packets(), 4000u);
#endif
}

// Same steady-state workload with a NullTraceSink attached to every link:
// the obs layer's acceptance bar is that event *emission* (TraceEvent
// fill + virtual dispatch) allocates nothing — a sink observing the hot
// path must not reintroduce the per-event heap traffic PR 2 removed.
TEST(Allocation, NullTraceSinkSteadyStateIsAllocationFree) {
#ifdef ABW_SANITIZED
  GTEST_SKIP() << "sanitizer build: allocator interposed";
#else
  Simulator simu;
  LinkConfig fast, tight;
  fast.capacity_bps = 1e9;
  fast.propagation_delay = 100;
  tight.capacity_bps = 5e8;
  tight.propagation_delay = 100;
  Path path(simu, {fast, tight});
  CountingSink sink;
  path.set_receiver(&sink);
  abw::obs::NullTraceSink trace;
  path.link(0).set_trace(&trace);
  path.link(1).set_trace(&trace);

  struct Injector {
    Simulator* simu;
    Path* path;
    void operator()() {
      Packet pkt;
      pkt.size_bytes = 1500;
      path->inject(0, pkt);
      simu->after(24000, *this);
    }
  };
  simu.at(0, Injector{&simu, &path});

  simu.run_until(200 * 24000);
  simu.reserve_events(64);
  for (std::size_t i = 0; i < path.hop_count(); ++i) {
    path.link(i).reserve_queue(64);
    path.link(i).meter().reserve(16384);
  }

  const std::uint64_t traced_before = trace.events();
  const std::uint64_t before = alloc_count();
  simu.run_until(5000 * 24000);
  const std::uint64_t after = alloc_count();

  EXPECT_GT(trace.events(), traced_before + 10000u)
      << "the sink saw too few events for the window to be meaningful";
  EXPECT_EQ(after, before) << "trace emission allocated " << (after - before)
                           << " times";
  EXPECT_GT(sink.packets(), 4000u);
#endif
}

}  // namespace
