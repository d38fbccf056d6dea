/// The serve workload, serve_churn_20k: serve::AllocationService::run over
/// a churning request stream with the incremental planner on. The traced
/// breakdown replays the run's placed decisions and releases through
/// core::FleetState and times each call ("replayed" layer numbers).

#include <cmath>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/incremental.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace aeva::e2e {
namespace {

/// One input: a request stream and the service that serves it.
struct ServeInput {
  std::size_t index = 0;
  std::vector<serve::ServeRequest> stream;
  serve::ServeConfig config;
  std::unique_ptr<serve::AllocationService> service;  ///< untraced
};

ServeInput make_input(const modeldb::ModelDatabase& db, const Options& o,
                      std::size_t index) {
  ServeInput in;
  in.index = index;
  const std::uint64_t seed = input_seed(o.seed, index);
  serve::ArrivalStreamConfig arrivals;
  arrivals.count = o.small ? 2000 : 20000;
  arrivals.rate_rps = 20.0;
  arrivals.hold_mean_s = 60.0;
  arrivals.min_vms = 1;
  arrivals.max_vms = 4;
  in.stream = serve::generate_stream(arrivals, seed);

  in.config.server_count = o.small ? 2000 : 20000;
  in.config.seed = seed;
  in.config.proactive.search_threads = 1;
  in.config.incremental.enabled = true;
  in.config.incremental.oracle_every_s = 0.0;
  in.config.incremental.oracle_every_decisions = 0;
  in.service = std::make_unique<serve::AllocationService>(db, in.config);
  return in;
}

/// What one set-up builds: the model database and the first input.
struct ServePrepared {
  std::unique_ptr<modeldb::ModelDatabase> db;
  ServeInput first;
};

ServePrepared make_serve_setup(const Options& o, SetupTimes& t) {
  ServePrepared p;
  Clock::time_point begin = Clock::now();
  p.db = std::make_unique<modeldb::ModelDatabase>(build_database());
  t.campaign_s = seconds_since(begin);
  begin = Clock::now();
  p.first = make_input(*p.db, o, 0);
  t.prepare_s = seconds_since(begin);
  return p;
}

/// Output conservation of one run; tallies the offered requests.
void check_serve_run(const ServeInput& in, const serve::ServeResult& r,
                     Report& report) {
  const serve::ServeMetrics& m = r.metrics;
  const std::string input = "input " + std::to_string(in.index) + ": ";
  report.checks.expect(m.offered == in.stream.size(),
                       input + "every stream request is offered");
  report.checks.expect(m.placed + m.rejected_final == m.offered,
                       input + "placed + finally rejected requests = offered");
  std::uint64_t placed_records = 0;
  bool widths_match = true;
  for (const serve::DecisionRecord& rec : r.log) {
    if (rec.event != serve::DecisionEvent::kPlaced) continue;
    ++placed_records;
    const serve::ServeRequest& req =
        in.stream[static_cast<std::size_t>(rec.request_id - 1)];
    widths_match = widths_match && std::cmp_equal(rec.servers.size(),
                                                  req.vm_count);
  }
  report.checks.expect(placed_records == m.placed,
                       input + "one placed log record per placed request");
  report.checks.expect(widths_match, input + "every placement covers its VMs");
  report.attempted += m.offered;
  report.failed += m.offered - m.placed;
}

/// Serves one input, untraced or with an obs session; returns host s.
double serve_once(const modeldb::ModelDatabase& db, const ServeInput& in,
                  bool traced, serve::ServeResult& out) {
  std::unique_ptr<serve::AllocationService> with_obs;
  if (traced) {
    serve::ServeConfig config = in.config;
    config.obs = make_session();
    with_obs = std::make_unique<serve::AllocationService>(db, config);
  }
  const serve::AllocationService& service = traced ? *with_obs : *in.service;
  const Clock::time_point begin = Clock::now();
  out = service.run(in.stream);
  return seconds_since(begin);
}

/// The replay times FleetState::up_servers() on every this-many-th
/// decision only: it copies the whole fleet and is not on the service's
/// incremental path, so timing it on every decision would make the replay
/// several times longer than the run it replays.
constexpr std::size_t kUpServersEvery = 20;

/// Per-call timings of one replay through core::FleetState.
struct Replay {
  Samples plan;
  Samples delta;       ///< allocate / deallocate, one VM each
  Samples up_servers;  ///< sampled, see kUpServersEvery
  std::uint64_t mismatches = 0;  ///< plans that differ from the log
};

/// Replays the placed decisions of `run` in log order: releases due by the
/// decision's start are applied, the request is planned, releases due
/// before the commit follow, and the logged placement is committed. Every
/// plan and delta call into the fleet is timed.
void replay(const modeldb::ModelDatabase& db, const ServeInput& in,
            const serve::ServeResult& run, Replay& out) {
  core::FleetState fleet(db, in.config.proactive);
  std::vector<core::ServerState> servers(
      static_cast<std::size_t>(in.config.server_count));
  for (std::size_t i = 0; i < servers.size(); ++i) {
    servers[i].id = static_cast<int>(i);
  }
  fleet.reset(servers);

  // Pending releases: (instant, commit order, request index).
  using Release = std::tuple<double, std::uint64_t, std::size_t>;
  std::priority_queue<Release, std::vector<Release>, std::greater<>> due;
  std::vector<std::vector<std::int32_t>> placed_on(in.stream.size());
  const auto release_until = [&](double t) {
    while (!due.empty() && std::get<0>(due.top()) <= t) {
      const std::size_t index = std::get<2>(due.top());
      due.pop();
      for (const std::int32_t server : placed_on[index]) {
        const Clock::time_point begin = Clock::now();
        fleet.deallocate(server, in.stream[index].profile);
        out.delta.add(ns_between(begin, Clock::now()));
      }
    }
  };

  std::vector<core::VmRequest> vms;
  std::int64_t next_vm_id = 1;
  std::uint64_t commits = 0;
  std::size_t decisions = 0;
  for (const serve::DecisionRecord& rec : run.log) {
    if (rec.event != serve::DecisionEvent::kPlaced) continue;
    const auto index = static_cast<std::size_t>(rec.request_id - 1);
    const serve::ServeRequest& req = in.stream[index];
    release_until(rec.t - rec.latency_s);

    vms.clear();
    for (int k = 0; k < req.vm_count; ++k) {
      vms.push_back(core::VmRequest{next_vm_id++, req.profile, req.qos_time_s});
    }
    Clock::time_point begin;
    if (decisions++ % kUpServersEvery == 0) {
      begin = Clock::now();
      static_cast<void>(fleet.up_servers());
      out.up_servers.add(ns_between(begin, Clock::now()));
    }
    begin = Clock::now();
    const core::AllocationResult plan = fleet.plan(vms);
    out.plan.add(ns_between(begin, Clock::now()));
    bool same = plan.complete &&
                plan.placements.size() == rec.servers.size();
    for (std::size_t k = 0; same && k < rec.servers.size(); ++k) {
      same = plan.placements[k].server_id == rec.servers[k];
    }
    out.mismatches += same ? 0 : 1;

    release_until(rec.t);
    for (const std::int32_t server : rec.servers) {
      begin = Clock::now();
      fleet.allocate(server, req.profile);
      out.delta.add(ns_between(begin, Clock::now()));
    }
    placed_on[index] = rec.servers;
    if (std::isfinite(req.hold_s)) {
      due.emplace(rec.t + req.hold_s, commits++, index);
    }
  }
}

}  // namespace

Report run_serve(const Options& o) {
  const RunBudget budget(o.seconds);
  Report report;
  std::vector<SetupTimes> setup_times;
  const auto set_up = [&](SetupTimes& t) { return make_serve_setup(o, t); };
  ServePrepared prepared = timed_setup(set_up, setup_times);
  const modeldb::ModelDatabase& db = *prepared.db;
  ServeInput input = std::move(prepared.first);

  // Untraced passes give the end-to-end numbers: one new input per pass,
  // the outcome inputs first. They leave room for the closing repeat and
  // traced pass of input 0; a traced run gives them half its time. Each
  // pass follows a reference measurement and precedes one more set-up.
  HostReference reference;
  Throughput throughput;
  std::vector<serve::ServeResult> results;
  std::vector<double> pass_s;
  std::vector<double> step_s;  ///< wall s per pass, input generation too
  do {
    const Clock::time_point step = Clock::now();
    if (input.index != pass_s.size()) {
      input = make_input(db, o, pass_s.size());
    }
    // Only the outcome inputs' results are kept, so that memory does not
    // grow with the number of passes.
    serve::ServeResult result;
    const double reference_s = reference.measure();
    const double seconds = serve_once(db, input, false, result);
    check_serve_run(input, result, report);
    if (results.size() < kOutcomeInputs) {
      results.push_back(std::move(result));
    }
    double vms = 0.0;
    for (const serve::ServeRequest& req : input.stream) {
      vms += req.vm_count;
    }
    pass_s.push_back(seconds);
    throughput.add(vms, static_cast<double>(input.stream.size()), seconds,
                   reference_s);
    timed_setup(set_up, setup_times);
    step_s.push_back(seconds_since(step));
  } while (pass_s.size() < kOutcomeInputs ||
           budget.fits(o.trace ? 0.5 : 1.0, median(step_s),
                       2.0 * median(step_s)));
  const double rss_mb = peak_rss_mb();

  // Input 0 again, untraced and then traced (obs session attached): both
  // must repeat the first pass. With --trace 1, traced passes continue
  // over the outcome inputs, each followed by one timed replay through
  // FleetState.
  input = make_input(db, o, 0);
  serve::ServeResult repeat;
  serve_once(db, input, false, repeat);
  report.checks.expect_same(diff_serve_results(repeat, results.front()),
                            "input 0: untraced pass repeats the first pass");
  std::vector<double> traced_ratio;  ///< traced ÷ untraced s, same input
  std::vector<double> replay_self_s;  ///< run s − replayed planner s
  Replay replayed;
  std::vector<double> traced_step_s;  ///< wall s per pass and its replay
  do {
    const Clock::time_point step = Clock::now();
    const std::size_t index = traced_ratio.size() % results.size();
    if (input.index != index) {
      input = make_input(db, o, index);
    }
    serve::ServeResult traced;
    const double seconds = serve_once(db, input, true, traced);
    report.checks.expect_same(
        diff_serve_results(traced, results[index]),
        "input " + std::to_string(index) + ": traced pass repeats the first");
    check_serve_run(input, traced, report);
    traced_ratio.push_back(seconds / pass_s[index]);
    if (o.trace) {
      const double before = replayed.plan.total_s() + replayed.delta.total_s();
      replay(db, input, results[index], replayed);
      replay_self_s.push_back(pass_s[index] - (replayed.plan.total_s() +
                                               replayed.delta.total_s() -
                                               before));
    }
    traced_step_s.push_back(seconds_since(step));
  } while (o.trace && budget.fits(1.0, median(traced_step_s), 0.0));

  log_pass_times("untraced passes", pass_s);
  double queue_depth = 0.0;
  double decisions_incremental = 0.0;
  double retries = 0.0;
  double duration_s = 0.0;
  double goodput = 0.0;
  for (std::size_t i = 0; i < kOutcomeInputs; ++i) {
    const serve::ServeMetrics& m = results[i].metrics;
    queue_depth += m.mean_queue_depth;
    decisions_incremental += static_cast<double>(m.decisions_incremental);
    retries += static_cast<double>(m.retries);
    duration_s += m.duration_s;
    goodput += m.goodput_fraction;
  }
  const auto inputs = static_cast<double>(kOutcomeInputs);
  throughput.report(report, o.trace);
  if (o.trace) {
    report.checks.expect(replayed.mismatches == 0,
                         "replayed FleetState plans match the logged "
                         "placements");
    const auto replays = static_cast<double>(replay_self_s.size());
    report.set("core.fleet_plan.calls",
               static_cast<double>(replayed.plan.count()) / replays);
    report.set("core.fleet_plan.us_p50", replayed.plan.quantile_us(0.50));
    report.set("core.fleet_plan.us_p99", replayed.plan.quantile_us(0.99));
    report.set("core.fleet_delta.us_p50", replayed.delta.quantile_us(0.50));
    report.set("core.fleet_up_servers.us_p50",
               replayed.up_servers.quantile_us(0.50));
    report.set("serve.run_s", median(pass_s));
    report.set("serve.self_s", median(replay_self_s));
    report.set("serve.queue_depth_mean", queue_depth / inputs);
    report.set("serve.decisions_incremental", decisions_incremental / inputs);
    report.set("serve.retries", retries / inputs);
    set_setup_metrics(report, setup_times, true);
    report.set("obs.overhead_ratio", median(traced_ratio));
    return report;
  }

  set_setup_metrics(report, setup_times, false);
  report.set("peak_rss_mb", rss_mb);
  report.set("makespan_s", duration_s / inputs);
  report.set("goodput_fraction", goodput / inputs);
  return report;
}

}  // namespace aeva::e2e
