/// Differential test of ProactiveAllocator over its FleetState: over 30
/// seeds, random sequences of server spans run through the default
/// allocator (which keeps a FleetState and syncs it to each span) and the
/// plain reference scorer (testing/reference_pa.hpp), and every
/// AllocationResult must match bit for bit. The sequences mix everything a
/// caller can do to a span between two calls: commits and releases,
/// crashes (the server vanishes), repairs (it returns cold and empty),
/// ToR-style isolations (it vanishes with its residents and returns with
/// them), a server that returns powered but empty, a reordered span, a
/// foreign fleet of another size, alternation with a second fleet, and
/// the changes only a rebuild can mirror (a hardware class that changes,
/// a server powered off in place). The fleets mix two hardware classes.
/// The `pa.fleet.resyncs` counter proves that pure delta churn never
/// rebuilds the fleet and that a reordered span rebuilds it once.
/// A view-delta case checks when a ViewDelta is applied and when the
/// allocator walks the span instead (`pa.fleet.walks`).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/proactive.hpp"
#include "obs/session.hpp"
#include "testing/reference_pa.hpp"
#include "testing/shared_db.hpp"
#include "util/rng.hpp"

namespace aeva::core {
namespace {

using workload::ClassCounts;
using workload::ProfileClass;

const modeldb::ModelDatabase& db() { return testing::shared_db(); }

std::shared_ptr<obs::Session> obs_session() {
  obs::ObsConfig config;
  config.enabled = true;
  return obs::Session::create(config);
}

void expect_identical(const AllocationResult& got,
                      const AllocationResult& want, std::uint64_t seed,
                      int step) {
  EXPECT_EQ(got.complete, want.complete) << "seed " << seed << " step " << step;
  EXPECT_EQ(got.satisfied_qos, want.satisfied_qos)
      << "seed " << seed << " step " << step;
  EXPECT_EQ(got.partitions_examined, want.partitions_examined)
      << "seed " << seed << " step " << step;
  EXPECT_EQ(got.outcome.path, want.outcome.path)
      << "seed " << seed << " step " << step;
  EXPECT_EQ(got.outcome.reason, want.outcome.reason)
      << "seed " << seed << " step " << step;
  EXPECT_EQ(got.outcome.search_truncated, want.outcome.search_truncated)
      << "seed " << seed << " step " << step;
  EXPECT_EQ(got.score.est_time_s, want.score.est_time_s)
      << "seed " << seed << " step " << step;
  EXPECT_EQ(got.score.est_energy_j, want.score.est_energy_j)
      << "seed " << seed << " step " << step;
  EXPECT_EQ(got.score.combined, want.score.combined)
      << "seed " << seed << " step " << step;
  ASSERT_EQ(got.placements.size(), want.placements.size())
      << "seed " << seed << " step " << step;
  for (std::size_t i = 0; i < got.placements.size(); ++i) {
    EXPECT_EQ(got.placements[i].vm_id, want.placements[i].vm_id)
        << "seed " << seed << " step " << step;
    EXPECT_EQ(got.placements[i].server_id, want.placements[i].server_id)
        << "seed " << seed << " step " << step;
  }
}

std::vector<VmRequest> random_request(util::Rng& rng) {
  const int vm_count = static_cast<int>(rng.uniform_int(1, 5));
  std::vector<VmRequest> vms;
  for (int i = 0; i < vm_count; ++i) {
    VmRequest vm;
    vm.id = i + 1;
    vm.profile = static_cast<ProfileClass>(rng.uniform_int(0, 2));
    vm.max_exec_time_s =
        rng.bernoulli(0.3) ? rng.uniform(500.0, 4000.0) : 1e12;
    vms.push_back(vm);
  }
  return vms;
}

ProactiveConfig random_config(util::Rng& rng) {
  ProactiveConfig config;
  config.alpha = rng.bernoulli(0.3)
                     ? static_cast<double>(rng.uniform_int(0, 1))
                     : rng.uniform(0.0, 1.0);
  if (rng.bernoulli(0.15)) {
    config.goal = ProactiveGoal::kEnergyDelayProduct;
  }
  config.degrade_to_first_fit = rng.bernoulli(0.3);
  config.fallback_best_effort = rng.bernoulli(0.2);
  config.enforce_qos = !rng.bernoulli(0.1);
  if (rng.bernoulli(0.15)) {
    config.max_partitions = static_cast<std::size_t>(rng.uniform_int(1, 6));
  }
  return config;
}

/// One server of a simulated fleet: its span entry plus why it is out of
/// the span, if it is.
struct Slot {
  ServerState state;
  bool crashed = false;   ///< down: returns cold and empty
  bool isolated = false;  ///< ToR-style: returns with its residents
};

/// A fleet as a caller sees it. Ids are dense (0..n−1) or sparse
/// (strided, with an offset) so both FleetState index forms run.
struct Fleet {
  std::vector<Slot> slots;

  Fleet(util::Rng& rng, int size, bool sparse) {
    const int stride = sparse ? static_cast<int>(rng.uniform_int(2, 5)) : 1;
    const int offset = sparse ? static_cast<int>(rng.uniform_int(1, 7)) : 0;
    const auto& base = db().base();
    for (int s = 0; s < size; ++s) {
      Slot slot;
      slot.state.id = offset + s * stride;
      if (rng.bernoulli(0.3)) {
        slot.state.allocated.cpu =
            static_cast<int>(rng.uniform_int(0, base.cpu.os()));
        slot.state.allocated.mem =
            static_cast<int>(rng.uniform_int(0, base.mem.os()));
        slot.state.allocated.io =
            static_cast<int>(rng.uniform_int(0, base.io.os()));
      }
      slot.state.powered =
          slot.state.allocated.total() > 0 || rng.bernoulli(0.2);
      slot.state.hardware = static_cast<int>(rng.uniform_int(0, 1));
      slots.push_back(slot);
    }
  }

  /// The live servers in ascending id order — what a caller passes.
  [[nodiscard]] std::vector<ServerState> span() const {
    std::vector<ServerState> out;
    for (const Slot& slot : slots) {
      if (!slot.crashed && !slot.isolated) {
        out.push_back(slot.state);
      }
    }
    return out;
  }

  Slot* by_id(int id) {
    for (Slot& slot : slots) {
      if (slot.state.id == id) {
        return &slot;
      }
    }
    return nullptr;
  }

  /// A random slot satisfying `pred`, or null.
  template <typename Pred>
  Slot* pick(util::Rng& rng, Pred pred) {
    std::vector<Slot*> matches;
    for (Slot& slot : slots) {
      if (pred(slot)) {
        matches.push_back(&slot);
      }
    }
    if (matches.empty()) {
      return nullptr;
    }
    return matches[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(matches.size()) - 1))];
  }
};

/// Two hardware classes (the same model twice: class 1 plans exactly like
/// class 0, but a class change is still a change to mirror).
std::vector<const modeldb::ModelDatabase*> two_classes() {
  return {&db(), &db()};
}

/// Runs the same call through both allocators and compares the results;
/// commits the placement to `fleet` when it succeeded.
class Harness {
 public:
  explicit Harness(const ProactiveConfig& config)
      : session_(obs_session()),
        adapter_(two_classes(), with_obs(config, session_)),
        reference_(two_classes(), config) {}

  void call(Fleet& fleet, const std::vector<ServerState>& span,
            util::Rng& rng, std::uint64_t seed, int step) {
    const std::vector<VmRequest> vms = random_request(rng);
    ++calls_;
    const AllocationResult got = adapter_.allocate(vms, span);
    const AllocationResult want = reference_.allocate(vms, span);
    expect_identical(got, want, seed, step);
    if (!got.complete) {
      return;
    }
    for (const Placement& p : got.placements) {
      Slot* slot = fleet.by_id(p.server_id);
      ASSERT_NE(slot, nullptr);
      ++slot->state.allocated.of(
          vms[static_cast<std::size_t>(p.vm_id - 1)].profile);
      slot->state.powered = true;
    }
  }

  [[nodiscard]] std::uint64_t resyncs() const {
    return session_->metrics().counter("pa.fleet.resyncs").value();
  }
  [[nodiscard]] std::uint64_t counter(const char* name) const {
    return session_->metrics().counter(name).value();
  }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  static ProactiveConfig with_obs(ProactiveConfig config,
                                  std::shared_ptr<obs::Session> session) {
    config.obs = std::move(session);
    return config;
  }

  std::shared_ptr<obs::Session> session_;
  std::uint64_t calls_ = 0;
  ProactiveAllocator adapter_;
  testing::ReferenceProactiveAllocator reference_;
};

/// Releases one random resident VM of a live server (an isolated
/// server's residents are frozen until it returns).
void release_one(Fleet& fleet, util::Rng& rng) {
  Slot* slot = fleet.pick(rng, [](const Slot& s) {
    return !s.crashed && !s.isolated && s.state.allocated.total() > 0;
  });
  if (slot == nullptr) {
    return;
  }
  for (const ProfileClass profile : workload::kAllProfileClasses) {
    if (slot->state.allocated.of(profile) > 0) {
      --slot->state.allocated.of(profile);
      return;
    }
  }
}

class ProactiveAdapter : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProactiveAdapter, MatchesReferenceAcrossSpanSequences) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed * 7919 + 17);
  const ProactiveConfig config = random_config(rng);
  Harness harness(config);
  Fleet fleet(rng, static_cast<int>(rng.uniform_int(3, 14)),
              rng.bernoulli(0.4));
  Fleet second(rng, static_cast<int>(rng.uniform_int(2, 10)),
               rng.bernoulli(0.5));

  int step = 0;
  // Warm-up: the first call builds the cached fleet (one reset).
  harness.call(fleet, fleet.span(), rng, seed, step++);
  EXPECT_EQ(harness.resyncs(), 1u) << "seed " << seed;

  // Phase 1 — pure delta churn: commits, releases, crashes, repairs,
  // ToR-style vanish/return with residents, and a server that returns
  // powered but empty. None needs a rebuild.
  const std::uint64_t resyncs_before_churn = harness.resyncs();
  for (int i = 0; i < 60; ++i, ++step) {
    const double roll = rng.uniform();
    if (roll < 0.25) {
      release_one(fleet, rng);
    } else if (roll < 0.35) {
      Slot* slot = fleet.pick(rng, [](const Slot& s) {
        return !s.crashed && !s.isolated;
      });
      if (slot != nullptr) {  // crash: residents die, the server vanishes
        slot->crashed = true;
        slot->state.allocated = ClassCounts{};
        slot->state.powered = false;
      }
    } else if (roll < 0.45) {
      Slot* slot = fleet.pick(rng, [](const Slot& s) { return s.crashed; });
      if (slot != nullptr) {  // repair: back cold and empty
        slot->crashed = false;
      }
    } else if (roll < 0.55) {
      Slot* slot = fleet.pick(rng, [](const Slot& s) {
        return !s.crashed && !s.isolated && s.state.powered;
      });
      if (slot != nullptr) {  // ToR isolation: vanishes with residents
        slot->isolated = true;
      }
    } else if (roll < 0.65) {
      Slot* slot = fleet.pick(rng, [](const Slot& s) { return s.isolated; });
      if (slot != nullptr) {  // ToR heal: returns with its residents
        slot->isolated = false;
      }
    } else if (roll < 0.72) {
      Slot* slot = fleet.pick(rng, [](const Slot& s) { return s.crashed; });
      if (slot != nullptr) {  // returns powered but empty
        slot->crashed = false;
        slot->state.powered = true;
      }
    }
    harness.call(fleet, fleet.span(), rng, seed, step);
  }
  EXPECT_EQ(harness.resyncs(), resyncs_before_churn)
      << "seed " << seed << ": pure delta churn rebuilt the cached fleet";

  // Phase 2 — changes only a rebuild can mirror, reordered spans, and
  // other fleets, interleaved with churn.
  for (int i = 0; i < 40; ++i, ++step) {
    const double roll = rng.uniform();
    if (roll < 0.15) {
      // A hardware class changes, or an idle server powers off in place.
      const bool power_off = rng.bernoulli(0.5);
      Slot* slot = fleet.pick(rng, [power_off](const Slot& s) {
        return !s.crashed && !s.isolated &&
               (!power_off ||
                (s.state.powered && s.state.allocated.total() == 0));
      });
      if (slot != nullptr) {
        harness.call(fleet, fleet.span(), rng, seed, step);  // in sync
        if (power_off) {
          slot->state.powered = false;
        } else {
          slot->state.hardware = 1 - slot->state.hardware;
        }
        const std::uint64_t before = harness.resyncs();
        harness.call(fleet, fleet.span(), rng, seed, step);
        EXPECT_EQ(harness.resyncs(), before + 1)
            << "seed " << seed << " step " << step
            << ": a change deltas cannot express must rebuild";
        continue;
      }
    } else if (roll < 0.3) {
      // A reordered span: one positional reset, then ties break by
      // position in it.
      harness.call(fleet, fleet.span(), rng, seed, step);  // id order
      std::vector<ServerState> span = fleet.span();
      std::reverse(span.begin(), span.end());
      if (span.size() > 2 && rng.bernoulli(0.5)) {
        std::swap(span.front(), span[span.size() / 2]);
      }
      const std::uint64_t before = harness.resyncs();
      harness.call(fleet, span, rng, seed, step);
      if (span.size() >= 2) {
        EXPECT_EQ(harness.resyncs(), before + 1)
            << "seed " << seed << " step " << step
            << ": a reordered span must rebuild once";
      }
      continue;
    } else if (roll < 0.4) {
      // A foreign fleet of another size, seen once.
      Fleet foreign(rng, static_cast<int>(rng.uniform_int(1, 20)),
                    rng.bernoulli(0.5));
      harness.call(foreign, foreign.span(), rng, seed, step);
      continue;
    } else if (roll < 0.65) {
      // Alternation with a second fleet that also churns.
      if (rng.bernoulli(0.3)) {
        release_one(second, rng);
      }
      harness.call(second, second.span(), rng, seed, step);
      continue;
    } else if (roll < 0.8) {
      release_one(fleet, rng);
    } else if (roll < 0.9) {
      Slot* slot = fleet.pick(rng, [](const Slot& s) {
        return s.crashed || s.isolated;
      });
      if (slot != nullptr) {
        slot->crashed = false;
        slot->isolated = false;
      }
    }
    harness.call(fleet, fleet.span(), rng, seed, step);
  }

  // Observability parity: every call flushed once with its outcome.
  EXPECT_EQ(harness.counter("pa.allocate.calls"),
            harness.counter("pa.alloc.primary") +
                harness.counter("pa.alloc.fallback") +
                harness.counter("pa.alloc.rejected"))
      << "seed " << seed;
  EXPECT_EQ(harness.counter("pa.allocate.calls"), harness.calls())
      << "seed " << seed;
}

TEST(ProactiveAdapterObs, FlushesTheSameSearchCountersOnAPositionalSpan) {
  // Same calls through two allocators: calls, candidates and outcomes
  // must agree; the tallies cover every examined candidate. The second
  // allocator sees the same servers in the same order with neighbouring
  // ids swapped (0↔1, 2↔3, …): its span is not id-ascending, so its fleet
  // breaks ties by span position — the same decisions, relabelled — and
  // still syncs by deltas after one reset.
  util::Rng rng(4711);
  ProactiveConfig incremental;
  incremental.alpha = 1.0;
  incremental.degrade_to_first_fit = true;
  incremental.obs = obs_session();
  ProactiveConfig batch = incremental;
  batch.obs = obs_session();
  const ProactiveAllocator inc(two_classes(), incremental);
  const ProactiveAllocator bat(two_classes(), batch);
  Fleet fleet(rng, 12, false);
  for (int i = 0; i < 80; ++i) {
    const std::vector<VmRequest> vms = random_request(rng);
    const std::vector<ServerState> span = fleet.span();
    std::vector<ServerState> swapped = span;
    for (ServerState& server : swapped) {
      server.id ^= 1;
    }
    const AllocationResult a = inc.allocate(vms, span);
    AllocationResult b = bat.allocate(vms, swapped);
    for (Placement& p : b.placements) {
      p.server_id ^= 1;
    }
    expect_identical(a, b, 4711, i);
    if (a.complete) {
      for (const Placement& p : a.placements) {
        Slot* slot = fleet.by_id(p.server_id);
        ++slot->state.allocated.of(
            vms[static_cast<std::size_t>(p.vm_id - 1)].profile);
        slot->state.powered = true;
      }
    }
    if (rng.bernoulli(0.5)) {
      release_one(fleet, rng);
    }
  }
  obs::MetricsRegistry& m = incremental.obs->metrics();
  obs::MetricsRegistry& mb = batch.obs->metrics();
  for (const char* name :
       {"pa.allocate.calls", "pa.search.candidates", "pa.alloc.primary",
        "pa.alloc.fallback", "pa.alloc.rejected",
        "pa.search.budget_truncated"}) {
    EXPECT_EQ(m.counter(name).value(), mb.counter(name).value()) << name;
  }
  EXPECT_EQ(m.counter("pa.search.candidates").value(),
            m.counter("pa.search.evaluated").value() +
                m.counter("pa.search.pruned_bound").value() +
                m.counter("pa.search.pruned_infeasible").value());
  EXPECT_GT(m.counter("pa.search.evaluated").value(), 0u);
  EXPECT_EQ(m.counter("pa.fleet.resyncs").value(), 1u);
  EXPECT_EQ(mb.counter("pa.fleet.resyncs").value(), 1u);
  for (obs::MetricsRegistry* registry : {&m, &mb}) {
    EXPECT_GT(registry->gauge("pa.memo.entries").value(), 0.0);
    EXPECT_GT(registry->gauge("pa.memo.hits").value(), 0.0);
  }
}

TEST(ProactiveAdapterViewDelta, AppliesOnlyDeltasThatContinueItsView) {
  // A caller that journals its span's changes passes them as a ViewDelta.
  // The allocator applies one only when it continues the view its fleet
  // mirrors (same view id, next sequence); the first call, a skipped
  // delta, another view and a call without a delta each cost one walk
  // (`pa.fleet.walks`). Every answer is the reference scorer's.
  ProactiveConfig config;
  config.alpha = 1.0;  // PA-1
  const testing::ReferenceProactiveAllocator reference(db(), config);
  config.obs = obs_session();
  const ProactiveAllocator pa(db(), config);
  std::vector<ServerState> span;
  for (int id = 0; id < 12; ++id) {
    span.push_back(ServerState{id, ClassCounts{}, false, 0});
  }
  std::vector<VmRequest> vms(2);
  vms[0].id = 1;
  vms[0].profile = ProfileClass::kCpu;
  vms[1].id = 2;
  vms[1].profile = ProfileClass::kMem;
  int step = 0;
  const auto expect_call = [&](const ViewDelta* delta,
                               std::uint64_t walks_after) {
    AllocationResult got;
    if (delta != nullptr) {
      pa.allocate_into(vms, span, *delta, got);
    } else {
      pa.allocate_into(vms, span, got);
    }
    expect_identical(got, reference.allocate(vms, span), 0, ++step);
    EXPECT_EQ(config.obs->metrics().counter("pa.fleet.walks").value(),
              walks_after)
        << "step " << step;
  };
  const std::uint64_t view = mint_view_id();
  const auto host = [&](int id, ProfileClass profile) {
    ++span[static_cast<std::size_t>(id)].allocated.of(profile);
    span[static_cast<std::size_t>(id)].powered = true;
  };
  std::vector<int> changed;
  const auto delta = [&](std::uint64_t view_id, std::uint64_t sequence) {
    return ViewDelta{view_id, sequence, changed};
  };

  ViewDelta d = delta(view, 1);
  expect_call(&d, 1);  // first call: walk
  host(3, ProfileClass::kCpu);
  host(3, ProfileClass::kCpu);
  changed = {3};
  d = delta(view, 2);
  expect_call(&d, 1);  // continues: applied
  host(5, ProfileClass::kMem);  // journaled in a delta this allocator misses
  changed = {};
  d = delta(view, 4);
  expect_call(&d, 2);  // gap in the sequence: walk
  span.erase(span.begin() + 8);  // server 8 leaves the span
  changed = {8};
  d = delta(view, 5);
  expect_call(&d, 2);
  host(7, ProfileClass::kIo);
  changed = {7};
  d = delta(mint_view_id(), 6);
  expect_call(&d, 3);  // another view at the next sequence: walk
  host(9, ProfileClass::kCpu);
  expect_call(nullptr, 4);  // no delta: walk, and the view is dropped
  host(10, ProfileClass::kCpu);
  changed = {10};
  d = delta(view, 7);
  expect_call(&d, 5);
  // A delta naming a server the fleet has never seen rebuilds the fleet:
  // no walk, one resync, and the fleet keeps following the view.
  const obs::Counter& resyncs =
      config.obs->metrics().counter("pa.fleet.resyncs");
  const std::uint64_t resyncs_before = resyncs.value();
  span.push_back(ServerState{12, ClassCounts{}, false, 0});
  host(static_cast<int>(span.size()) - 1, ProfileClass::kMem);  // id 12
  changed = {12};
  d = delta(view, 8);
  expect_call(&d, 5);
  EXPECT_EQ(resyncs.value(), resyncs_before + 1);
  host(4, ProfileClass::kCpu);  // ids below 8 keep their index
  changed = {4};
  d = delta(view, 9);
  expect_call(&d, 5);
  EXPECT_EQ(resyncs.value(), resyncs_before + 1);
}

TEST(ProactiveAdapterConcurrency, ConcurrentCallersGetReferenceAnswers) {
  // Four threads share one default allocator, each churning its own
  // fleet: calls take turns on the one FleetState, which flips between
  // fleets. Every call must still return the reference bits for its own
  // inputs.
  ProactiveConfig config;
  config.alpha = 0.5;
  config.degrade_to_first_fit = true;
  const ProactiveAllocator shared(two_classes(), config);
  const testing::ReferenceProactiveAllocator reference(two_classes(), config);

  struct Call {
    std::vector<VmRequest> vms;
    std::vector<ServerState> span;
    AllocationResult result;
  };
  constexpr int kThreads = 4;
  std::vector<std::vector<Call>> calls(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &shared, &calls] {
      util::Rng rng(9100 + static_cast<std::uint64_t>(t));
      Fleet fleet(rng, 6 + 3 * t, t % 2 == 1);
      for (int i = 0; i < 40; ++i) {
        Call call;
        call.vms = random_request(rng);
        call.span = fleet.span();
        call.result = shared.allocate(call.vms, call.span);
        if (call.result.complete) {
          for (const Placement& p : call.result.placements) {
            Slot* slot = fleet.by_id(p.server_id);
            ++slot->state.allocated.of(
                call.vms[static_cast<std::size_t>(p.vm_id - 1)].profile);
            slot->state.powered = true;
          }
        }
        release_one(fleet, rng);
        calls[static_cast<std::size_t>(t)].push_back(std::move(call));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    int step = 0;
    for (const Call& call : calls[static_cast<std::size_t>(t)]) {
      expect_identical(call.result, reference.allocate(call.vms, call.span),
                       static_cast<std::uint64_t>(t), step++);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProactiveAdapter,
                         ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace aeva::core
