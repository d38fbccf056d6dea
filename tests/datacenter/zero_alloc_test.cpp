/// \file zero_alloc_test.cpp
/// Steady-state heap-allocation gate for the event loop (this PR's
/// tentpole): once the simulator's scratch buffers, queue, and fleet view
/// have warmed up, processing an event must perform ZERO heap
/// allocations. The test instruments the global allocator with a counting
/// override, arms it over a mid-run window (after every high-water mark —
/// running-VM vector, queue ring, scratch capacities, estimate cache —
/// has been reached), and asserts the counter never moves.
///
/// The override is binary-global but inert unless armed, so the other
/// suites linked into test_datacenter are unaffected (gtest runs tests in
/// one binary serially).
///
/// Configuration deliberately mirrors the bench's steady-state leg:
/// observability OFF (trace spans allocate strings when a session is
/// attached), failures/migration/snapshots OFF. Three allocators run it:
/// FirstFit, PA-1, and PA-1 with rack spread; PA plans on a FleetState
/// synced to the simulator's fleet view and writes into the caller's
/// reused AllocationResult.
///
/// Every replaceable allocation function is overridden — the nothrow
/// forms too — so every allocation is counted and every block goes back
/// to the allocator family that made it.

#include "datacenter/simulator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/first_fit.hpp"
#include "core/proactive.hpp"
#include "datacenter/topology.hpp"
#include "obs/session.hpp"
#include "testing/shared_db.hpp"
#include "trace/prepare.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::uint64_t> g_allocations{0};

void note_allocation() noexcept {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked_malloc(std::size_t size) {
  void* p = std::malloc(size != 0 ? size : 1);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* aligned_or_null(std::size_t size, std::size_t align) noexcept {
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size != 0 ? size : 1) != 0) {
    return nullptr;
  }
  return p;
}

void* checked_aligned(std::size_t size, std::size_t align) {
  void* p = aligned_or_null(size, align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

// Replaceable global allocation functions ([new.delete]): every heap
// allocation in the binary funnels through these.
void* operator new(std::size_t size) {
  note_allocation();
  return checked_malloc(size);
}
void* operator new[](std::size_t size) {
  note_allocation();
  return checked_malloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  note_allocation();
  return checked_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  note_allocation();
  return checked_aligned(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_allocation();
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  note_allocation();
  return std::malloc(size != 0 ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  note_allocation();
  return aligned_or_null(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  note_allocation();
  return aligned_or_null(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace aeva::datacenter {
namespace {

using trace::JobRequest;
using trace::PreparedWorkload;
using workload::ProfileClass;

/// Steady bursty workload (same generator shape as the bit-identity
/// suite): enough jobs that concurrency plateaus well before the armed
/// window opens.
PreparedWorkload steady_workload(std::uint64_t seed, int target_jobs) {
  util::Rng rng(seed);
  PreparedWorkload workload;
  long long id = 1;
  double t = 0.0;
  while (static_cast<int>(workload.jobs.size()) < target_jobs) {
    const auto burst = static_cast<int>(rng.uniform_int(1, 5));
    const auto profile = static_cast<ProfileClass>(rng.uniform_int(0, 2));
    for (int b = 0; b < burst; ++b) {
      JobRequest job;
      job.id = id++;
      job.submit_s = t;
      job.profile = profile;
      job.vm_count = static_cast<int>(rng.uniform_int(1, 4));
      job.runtime_scale = rng.uniform(0.4, 2.5);
      job.deadline_s = rng.uniform(2000.0, 20000.0);
      job.max_exec_stretch = rng.uniform(1.5, 3.0);
      workload.total_vms += job.vm_count;
      workload.vm_mix.of(job.profile) += job.vm_count;
      workload.jobs.push_back(job);
    }
    t += rng.exponential(1.0 / 45.0);
  }
  return workload;
}

/// Runs `workload` twice through `allocator` and asserts that the second
/// run's warm window (the middle 55%..90% of intervals) performs zero
/// heap allocations.
void expect_warm_window_allocation_free(const PreparedWorkload& workload,
                                        const core::Allocator& allocator) {
  CloudConfig cloud;
  cloud.server_count = 40;
  const Simulator sim(testing::shared_db(), cloud);

  // Pass 1: count the run's intervals so the armed window can sit in the
  // middle of the steady state.
  std::size_t total_intervals = 0;
  const SimMetrics first = sim.run(
      workload, allocator,
      [&](double, double, const std::vector<double>&) { ++total_intervals; });
  ASSERT_GT(total_intervals, 100u) << "workload too small to have a warm "
                                      "steady-state window";

  // Pass 2: arm the counter over the middle 55%..90% of intervals — past
  // every capacity high-water mark, before teardown.
  const std::size_t arm_at = (total_intervals * 55) / 100;
  const std::size_t disarm_at = (total_intervals * 90) / 100;
  std::size_t interval = 0;
  g_allocations.store(0);
  const SimMetrics second = sim.run(
      workload, allocator, [&](double, double, const std::vector<double>&) {
        ++interval;
        if (interval == arm_at) {
          g_armed.store(true, std::memory_order_relaxed);
        } else if (interval == disarm_at) {
          g_armed.store(false, std::memory_order_relaxed);
        }
      });
  g_armed.store(false);

  EXPECT_EQ(g_allocations.load(), 0u)
      << "the event loop heap-allocated inside its warm steady-state "
         "window (" << arm_at << ".." << disarm_at << " of "
      << total_intervals << " intervals)";
  // Both passes are the same simulation: the observer is passive.
  EXPECT_EQ(first.energy_j, second.energy_j);
  EXPECT_EQ(first.vms, second.vms);
}

TEST(ZeroAllocEventLoop, WarmWindowPerformsNoHeapAllocations) {
  const core::FirstFitAllocator allocator(2);
  expect_warm_window_allocation_free(steady_workload(4242, 400), allocator);
}

TEST(ZeroAllocEventLoop, ProactiveWarmWindowPerformsNoHeapAllocations) {
  core::ProactiveConfig config;
  config.alpha = 1.0;  // PA-1
  const core::ProactiveAllocator allocator(testing::shared_db(), config);
  expect_warm_window_allocation_free(steady_workload(4242, 400), allocator);
}

TEST(ZeroAllocEventLoop, ProactiveDeltaPathWarmWindowPerformsNoHeapAllocations) {
  // The simulator hands PA-1 a view delta with every call; the walk
  // counter proves the warm window ran on the changed-ids path (one walk
  // per run: the first call of each run's new view).
  obs::ObsConfig obs_on;
  obs_on.enabled = true;
  core::ProactiveConfig config;
  config.alpha = 1.0;  // PA-1
  config.obs = obs::Session::create(obs_on);
  const core::ProactiveAllocator allocator(testing::shared_db(), config);
  expect_warm_window_allocation_free(steady_workload(4242, 400), allocator);
  obs::MetricsRegistry& m = config.obs->metrics();
  EXPECT_GT(m.counter("pa.allocate.calls").value(), 800u);
  EXPECT_EQ(m.counter("pa.fleet.walks").value(), 2u);
}

TEST(ZeroAllocEventLoop, RackSpreadProactiveWarmWindowPerformsNoHeapAllocations) {
  // The simulator's 40 servers in racks of 10, at most two of a
  // request's VMs per rack, with the blast penalty on.
  const Topology topo =
      make_synthetic_topology(SyntheticTopologyConfig{40, 10, 2, 1});
  core::ProactiveConfig config;
  config.alpha = 1.0;  // PA-1
  config.spread = spread_by_rack(topo, 2, 0.3);
  const core::ProactiveAllocator allocator(testing::shared_db(), config);
  expect_warm_window_allocation_free(steady_workload(4242, 400), allocator);
}

}  // namespace
}  // namespace aeva::datacenter
