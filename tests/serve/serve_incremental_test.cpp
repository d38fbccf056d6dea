/// The incremental serve rung (docs/SERVING.md "Incremental allocator"):
/// with `ServeConfig::incremental` enabled the service answers normal-mode
/// decisions from a cached core::FleetState and demotes the exhaustive
/// ProactiveAllocator to a periodic oracle. The contract under test:
/// incremental runs stay bit-reproducible, an oracle on every decision
/// reproduces the plain exhaustive run's decision log byte for byte, the
/// oracle never observes a divergence (the planner is exact), snapshots
/// carry the oracle cadence so resume stays bit-identical, and the config
/// fingerprint pins every incremental knob.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "datacenter/failure.hpp"
#include "persist/serve_snapshot.hpp"
#include "serve/service.hpp"
#include "testing/shared_db.hpp"

namespace aeva::serve {
namespace {

/// Busy enough to exercise queueing, ladder trips, retries, and — every
/// run — a scripted crash/repair cycle that the fleet mirror must track.
ServeConfig busy_config(std::uint64_t seed) {
  ServeConfig config;
  config.server_count = 8;
  config.queue.capacity = 14;
  config.health.queue_high = 9.0;
  config.health.queue_low = 2.0;
  config.health.trip_after = 2;
  config.health.rearm_after = 4;
  config.cost.base_s = 0.05;
  config.seed = seed;
  config.failure.enabled = true;
  datacenter::FailureEvent crash;
  crash.kind = datacenter::FailureKind::kCrash;
  crash.server = 3;
  crash.at_s = 1.0;
  crash.duration_s = 1.0;
  config.failure.script.push_back(crash);
  return config;
}

std::vector<ServeRequest> busy_stream(std::uint64_t seed) {
  ArrivalStreamConfig stream;
  stream.count = 120;
  stream.rate_rps = 45.0;
  stream.hold_mean_s = 25.0;
  stream.deadline_slack_s = 8.0;
  return generate_stream(stream, seed);
}

TEST(ServeIncremental, PureIncrementalRunsAreBitReproducible) {
  const modeldb::ModelDatabase& db = testing::shared_db();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ServeConfig config = busy_config(seed);
    config.incremental.enabled = true;  // oracle off: incremental only
    const AllocationService service(db, config);
    const std::vector<ServeRequest> stream = busy_stream(seed);
    const ServeResult a = service.run(stream);
    const ServeResult b = service.run(stream);
    ASSERT_EQ(render_decision_log(a.log), render_decision_log(b.log))
        << "seed " << seed;
    ASSERT_EQ(serve_metrics_json(a.metrics), serve_metrics_json(b.metrics))
        << "seed " << seed;
    EXPECT_GT(a.metrics.decisions_incremental, 0u) << "seed " << seed;
    EXPECT_EQ(a.metrics.oracle_checks, 0u) << "seed " << seed;
    // The decision log records which allocator answered.
    EXPECT_NE(render_decision_log(a.log).find("incremental"),
              std::string::npos)
        << "seed " << seed;
  }
}

TEST(ServeIncremental, OracleEveryDecisionMatchesExhaustiveRunExactly) {
  const modeldb::ModelDatabase& db = testing::shared_db();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::vector<ServeRequest> stream = busy_stream(seed);
    const AllocationService plain(db, busy_config(seed));
    ServeConfig checked_config = busy_config(seed);
    checked_config.incremental.enabled = true;
    checked_config.incremental.oracle_every_decisions = 1;
    const AllocationService checked(db, checked_config);

    const ServeResult reference = plain.run(stream);
    const ServeResult shadowed = checked.run(stream);
    // Every decision is an oracle decision: the exhaustive allocator
    // stays authoritative, so the run is byte-identical to plain — while
    // the shadow planner is cross-checked at every step.
    ASSERT_EQ(render_decision_log(reference.log),
              render_decision_log(shadowed.log))
        << "seed " << seed;
    EXPECT_GT(shadowed.metrics.oracle_checks, 0u) << "seed " << seed;
    EXPECT_EQ(shadowed.metrics.oracle_divergences, 0u) << "seed " << seed;
    EXPECT_EQ(shadowed.metrics.fleet_resyncs, 0u) << "seed " << seed;
    EXPECT_EQ(shadowed.metrics.decisions_incremental, 0u) << "seed " << seed;
  }
}

TEST(ServeIncremental, PeriodicOracleObservesNoDriftUnderChurn) {
  const modeldb::ModelDatabase& db = testing::shared_db();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ServeConfig config = busy_config(seed);
    config.incremental.enabled = true;
    config.incremental.oracle_every_s = 0.5;
    const AllocationService service(db, config);
    const ServeResult result = service.run(busy_stream(seed));
    EXPECT_GT(result.metrics.decisions_incremental, 0u) << "seed " << seed;
    EXPECT_GT(result.metrics.oracle_checks, 0u) << "seed " << seed;
    // The planner is exact and the mirror tracks every commit, release,
    // crash, and repair: the oracle must never see a divergence.
    EXPECT_EQ(result.metrics.oracle_divergences, 0u) << "seed " << seed;
    EXPECT_EQ(result.metrics.fleet_resyncs, 0u) << "seed " << seed;
  }
}

TEST(ServeIncremental, SnapshotResumeStaysBitIdentical) {
  const modeldb::ModelDatabase& db = testing::shared_db();
  const std::vector<ServeRequest> stream = busy_stream(7);

  ServeConfig config = busy_config(7);
  config.incremental.enabled = true;
  config.incremental.oracle_every_s = 0.75;
  const AllocationService reference(db, config);
  const ServeResult full = reference.run(stream);

  ServeConfig snapshotting = config;
  snapshotting.snapshot.every_s = 0.5;
  std::vector<persist::ServeSnapshot> taken;
  snapshotting.snapshot.hook =
      [&taken](const persist::ServeSnapshot& snap) { taken.push_back(snap); };
  const AllocationService recorder(db, snapshotting);
  const ServeResult recorded = recorder.run(stream);
  ASSERT_GE(taken.size(), 3u);
  ASSERT_EQ(render_decision_log(full.log), render_decision_log(recorded.log));

  const std::size_t picks[] = {0, taken.size() / 2, taken.size() - 1};
  for (const std::size_t pick : picks) {
    const ServeResult resumed = reference.resume(stream, taken[pick]);
    EXPECT_EQ(render_decision_log(full.log), render_decision_log(resumed.log))
        << "resumed from snapshot " << pick;
    EXPECT_EQ(serve_metrics_json(full.metrics),
              serve_metrics_json(resumed.metrics))
        << "resumed from snapshot " << pick;
  }
}

TEST(ServeIncremental, ConfigFingerprintPinsEveryIncrementalKnob) {
  const modeldb::ModelDatabase& db = testing::shared_db();
  const auto fingerprint = [&db](const ServeConfig& config) {
    return AllocationService(db, config).config_fingerprint();
  };
  const ServeConfig base = busy_config(1);
  const std::uint64_t plain = fingerprint(base);

  ServeConfig enabled = base;
  enabled.incremental.enabled = true;
  EXPECT_NE(fingerprint(enabled), plain);

  ServeConfig cadence = enabled;
  cadence.incremental.oracle_every_s = 10.0;
  EXPECT_NE(fingerprint(cadence), fingerprint(enabled));

  ServeConfig decisions = enabled;
  decisions.incremental.oracle_every_decisions = 64;
  EXPECT_NE(fingerprint(decisions), fingerprint(enabled));

  ServeConfig watermark = enabled;
  watermark.incremental.drift_watermark = 3;
  EXPECT_NE(fingerprint(watermark), fingerprint(enabled));

  ServeConfig cost = base;
  cost.cost.incremental_s = 1e-3;
  EXPECT_NE(fingerprint(cost), plain);
}

TEST(ServeIncremental, ValidationRejectsBadIncrementalConfig) {
  const modeldb::ModelDatabase& db = testing::shared_db();
  ServeConfig bad_cost = busy_config(1);
  bad_cost.cost.incremental_s = 0.0;
  EXPECT_THROW((void)AllocationService(db, bad_cost), std::invalid_argument);

  ServeConfig bad_period = busy_config(1);
  bad_period.incremental.oracle_every_s = -1.0;
  EXPECT_THROW((void)AllocationService(db, bad_period),
               std::invalid_argument);

  ServeConfig bad_watermark = busy_config(1);
  bad_watermark.incremental.drift_watermark = 0;
  EXPECT_THROW((void)AllocationService(db, bad_watermark),
               std::invalid_argument);
}

TEST(ServeIncremental, SpreadOracleRunMatchesExhaustiveRunExactly) {
  // The incremental rung under a failure-domain spread constraint: three
  // domains of two servers, two unmapped servers, one VM per domain per
  // request and the blast penalty on — so 4-VM requests reject as
  // spread-infeasible. With the oracle on every decision the journal must
  // be the plain run's, byte for byte, and the shadow planner must agree
  // with the exhaustive allocator on every decision.
  const modeldb::ModelDatabase& db = testing::shared_db();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::vector<ServeRequest> stream = busy_stream(seed);
    ServeConfig plain_config = busy_config(seed);
    core::SpreadConfig& spread = plain_config.proactive.spread;
    spread.enabled = true;
    spread.max_vms_per_domain = 1;
    spread.domain_count = 3;
    spread.domain_of_server = {0, 0, 1, 1, 2, 2};
    spread.blast_penalty = 0.3;
    const AllocationService plain(db, plain_config);
    ServeConfig checked_config = plain_config;
    checked_config.incremental.enabled = true;
    checked_config.incremental.oracle_every_decisions = 1;
    const AllocationService checked(db, checked_config);

    const ServeResult reference = plain.run(stream);
    const ServeResult shadowed = checked.run(stream);
    const std::string journal = render_decision_log(reference.log);
    ASSERT_EQ(journal, render_decision_log(shadowed.log)) << "seed " << seed;
    EXPECT_NE(journal.find("spread"), std::string::npos) << "seed " << seed;
    EXPECT_GT(shadowed.metrics.oracle_checks, 0u) << "seed " << seed;
    EXPECT_EQ(shadowed.metrics.oracle_divergences, 0u) << "seed " << seed;
    EXPECT_EQ(shadowed.metrics.fleet_resyncs, 0u) << "seed " << seed;

    ServeConfig periodic_config = plain_config;
    periodic_config.incremental.enabled = true;
    periodic_config.incremental.oracle_every_s = 0.5;
    const ServeResult periodic = AllocationService(db, periodic_config).run(stream);
    EXPECT_GT(periodic.metrics.decisions_incremental, 0u) << "seed " << seed;
    EXPECT_GT(periodic.metrics.oracle_checks, 0u) << "seed " << seed;
    EXPECT_EQ(periodic.metrics.oracle_divergences, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace aeva::serve
