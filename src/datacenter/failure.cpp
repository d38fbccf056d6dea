#include "datacenter/failure.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "datacenter/topology.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace aeva::datacenter {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void validate_event(const FailureEvent& event, int server_count,
                    int pdu_count, int tor_count, std::size_t index) {
  AEVA_REQUIRE(std::isfinite(event.at_s) && event.at_s >= 0.0,
               "failure event ", index, " has invalid time ", event.at_s);
  AEVA_REQUIRE(std::isfinite(event.duration_s) && event.duration_s >= 0.0,
               "failure event ", index, " has invalid duration ",
               event.duration_s);
  switch (event.kind) {
    case FailureKind::kCrash:
      AEVA_REQUIRE(event.server >= 0 && event.server < server_count,
                   "failure event ", index, " targets server ", event.server,
                   " outside the cloud of ", server_count);
      break;
    case FailureKind::kDegrade:
      AEVA_REQUIRE(event.server >= 0 && event.server < server_count,
                   "failure event ", index, " targets server ", event.server,
                   " outside the cloud of ", server_count);
      AEVA_REQUIRE(std::isfinite(event.magnitude) && event.magnitude > 0.0 &&
                       event.magnitude <= 1.0,
                   "degrade event ", index, " multiplier ", event.magnitude,
                   " out of (0, 1]");
      break;
    case FailureKind::kBrownout:
      AEVA_REQUIRE(event.server >= 0 && event.server < server_count,
                   "failure event ", index, " targets server ", event.server,
                   " outside the cloud of ", server_count);
      AEVA_REQUIRE(std::isfinite(event.magnitude) && event.magnitude > 0.0,
                   "brownout event ", index, " power cap ", event.magnitude,
                   " must be positive");
      break;
    case FailureKind::kPduFault:
      AEVA_REQUIRE(event.server >= 0 && event.server < pdu_count,
                   "failure event ", index, " targets pdu feed ",
                   event.server, " but the topology has ", pdu_count,
                   " feeds (domain events need FailureConfig::topology)");
      break;
    case FailureKind::kTorFault:
      AEVA_REQUIRE(event.server >= 0 && event.server < tor_count,
                   "failure event ", index, " targets tor switch ",
                   event.server, " but the topology has ", tor_count,
                   " switches (domain events need FailureConfig::topology)");
      break;
  }
}

}  // namespace

void FailureConfig::validate(int server_count) const {
  if (!enabled) {
    return;
  }
  AEVA_REQUIRE(std::isfinite(mtbf_s) && mtbf_s >= 0.0,
               "MTBF must be non-negative, got ", mtbf_s);
  if (mtbf_s > 0.0) {
    AEVA_REQUIRE(std::isfinite(mttr_s) && mttr_s > 0.0,
                 "MTTR must be positive when sampling crashes, got ", mttr_s);
  }
  AEVA_REQUIRE(recovery.checkpoint_period_s > 0.0,
               "checkpoint period must be positive, got ",
               recovery.checkpoint_period_s);
  AEVA_REQUIRE(
      recovery.checkpoint_tax >= 0.0 && recovery.checkpoint_tax < 1.0,
      "checkpoint tax out of [0, 1): ", recovery.checkpoint_tax);
  AEVA_REQUIRE(recovery.max_retries >= 0,
               "max retries must be non-negative, got ",
               recovery.max_retries);
  AEVA_REQUIRE(std::isfinite(domains.pdu_mtbf_s) && domains.pdu_mtbf_s >= 0.0,
               "PDU MTBF must be non-negative, got ", domains.pdu_mtbf_s);
  if (domains.pdu_mtbf_s > 0.0) {
    AEVA_REQUIRE(std::isfinite(domains.pdu_mttr_s) && domains.pdu_mttr_s > 0.0,
                 "PDU MTTR must be positive when sampling faults, got ",
                 domains.pdu_mttr_s);
  }
  AEVA_REQUIRE(std::isfinite(domains.tor_mtbf_s) && domains.tor_mtbf_s >= 0.0,
               "ToR MTBF must be non-negative, got ", domains.tor_mtbf_s);
  if (domains.tor_mtbf_s > 0.0) {
    AEVA_REQUIRE(std::isfinite(domains.tor_mttr_s) && domains.tor_mttr_s > 0.0,
                 "ToR MTTR must be positive when sampling faults, got ",
                 domains.tor_mttr_s);
  }
  if (topology != nullptr) {
    AEVA_REQUIRE(topology->server_count() == server_count,
                 "failure topology covers ", topology->server_count(),
                 " servers, cloud has ", server_count);
  } else {
    AEVA_REQUIRE(domains.pdu_mtbf_s == 0.0 && domains.tor_mtbf_s == 0.0,
                 "domain-fault sampling requires FailureConfig::topology");
  }
  const int pdus = topology != nullptr ? topology->pdu_count() : 0;
  const int tors = topology != nullptr ? topology->tor_count() : 0;
  for (std::size_t i = 0; i < script.size(); ++i) {
    validate_event(script[i], server_count, pdus, tors, i);
  }
}

FailureSchedule::FailureSchedule(const FailureConfig& config, int server_count,
                                 double start_s)
    : script_(config.script),
      mtbf_s_(config.enabled ? config.mtbf_s : 0.0),
      mttr_s_(config.mttr_s) {
  if (!config.enabled) {
    script_.clear();
    return;
  }
  // Canonical order up front: simultaneous scripted faults replay in the
  // same (time, domain/server, kind) order whatever order the script
  // listed them in.
  std::stable_sort(script_.begin(), script_.end(), canonical_event_order);
  const auto n = static_cast<std::size_t>(server_count);
  sampled_next_.assign(n, kInf);
  if (mtbf_s_ > 0.0) {
    // One decorrelated stream per server so per-server crash processes are
    // independent and insensitive to event interleaving elsewhere.
    util::Rng root = util::named_stream(config.seed, "failures");
    streams_.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      streams_.push_back(root.fork(static_cast<std::uint64_t>(s)));
      sampled_next_[s] = start_s + streams_[s].exponential(1.0 / mtbf_s_);
    }
  }
  if (config.topology != nullptr) {
    pdu_mtbf_s_ = config.domains.pdu_mtbf_s;
    pdu_mttr_s_ = config.domains.pdu_mttr_s;
    tor_mtbf_s_ = config.domains.tor_mtbf_s;
    tor_mttr_s_ = config.domains.tor_mttr_s;
    const auto np = static_cast<std::size_t>(config.topology->pdu_count());
    const auto nt = static_cast<std::size_t>(config.topology->tor_count());
    if (pdu_mtbf_s_ > 0.0 || tor_mtbf_s_ > 0.0) {
      // Domain processes live on their own named stream — adding them to
      // a run can never shift a per-server draw. Feed d forks substream
      // d; switch r forks substream pdu_count + r.
      util::Rng root = util::named_stream(config.seed, "domain-failures");
      if (pdu_mtbf_s_ > 0.0) {
        pdu_next_.assign(np, kInf);
        pdu_streams_.reserve(np);
        for (std::size_t d = 0; d < np; ++d) {
          pdu_streams_.push_back(root.fork(static_cast<std::uint64_t>(d)));
          pdu_next_[d] = start_s + pdu_streams_[d].exponential(1.0 / pdu_mtbf_s_);
        }
      }
      if (tor_mtbf_s_ > 0.0) {
        tor_next_.assign(nt, kInf);
        tor_streams_.reserve(nt);
        for (std::size_t r = 0; r < nt; ++r) {
          tor_streams_.push_back(
              root.fork(static_cast<std::uint64_t>(np + r)));
          tor_next_[r] = start_s + tor_streams_[r].exponential(1.0 / tor_mtbf_s_);
        }
      }
    }
  }
}

double FailureSchedule::next_time() const noexcept {
  double next = kInf;
  if (script_next_ < script_.size()) {
    next = script_[script_next_].at_s;
  }
  for (const double t : sampled_next_) {
    next = std::min(next, t);
  }
  for (const double t : pdu_next_) {
    next = std::min(next, t);
  }
  for (const double t : tor_next_) {
    next = std::min(next, t);
  }
  return next;
}

void FailureSchedule::pop_due(double now, std::vector<FailureEvent>& out) {
  constexpr double kEps = 1e-9;
  out.clear();
  while (script_next_ < script_.size() &&
         script_[script_next_].at_s <= now + kEps) {
    out.push_back(script_[script_next_]);
    ++script_next_;
  }
  for (std::size_t s = 0; s < sampled_next_.size(); ++s) {
    if (sampled_next_[s] <= now + kEps) {
      FailureEvent crash;
      crash.kind = FailureKind::kCrash;
      crash.server = static_cast<int>(s);
      crash.at_s = sampled_next_[s];
      crash.duration_s = streams_[s].exponential(1.0 / mttr_s_);
      // Suppressed until on_repair re-arms the server's process.
      sampled_next_[s] = kInf;
      out.push_back(crash);
    }
  }
  for (std::size_t d = 0; d < pdu_next_.size(); ++d) {
    if (pdu_next_[d] <= now + kEps) {
      FailureEvent fault;
      fault.kind = FailureKind::kPduFault;
      fault.server = static_cast<int>(d);
      fault.at_s = pdu_next_[d];
      fault.duration_s = pdu_streams_[d].exponential(1.0 / pdu_mttr_s_);
      // Immediate re-arm from the heal instant: nothing else draws from
      // this stream, so arming now or at the heal is the same sequence.
      pdu_next_[d] = fault.at_s + fault.duration_s +
                     pdu_streams_[d].exponential(1.0 / pdu_mtbf_s_);
      out.push_back(fault);
    }
  }
  for (std::size_t r = 0; r < tor_next_.size(); ++r) {
    if (tor_next_[r] <= now + kEps) {
      FailureEvent fault;
      fault.kind = FailureKind::kTorFault;
      fault.server = static_cast<int>(r);
      fault.at_s = tor_next_[r];
      fault.duration_s = tor_streams_[r].exponential(1.0 / tor_mttr_s_);
      tor_next_[r] = fault.at_s + fault.duration_s +
                     tor_streams_[r].exponential(1.0 / tor_mtbf_s_);
      out.push_back(fault);
    }
  }
  // Canonical batch order: however the sources interleaved above, a
  // simultaneous batch applies in one bit-stable order on every replay.
  std::stable_sort(out.begin(), out.end(), canonical_event_order);
}

void FailureSchedule::on_crash(int server) {
  const auto s = static_cast<std::size_t>(server);
  if (s < sampled_next_.size()) {
    sampled_next_[s] = kInf;
  }
}

void FailureSchedule::on_repair(int server, double repair_s) {
  const auto s = static_cast<std::size_t>(server);
  if (mtbf_s_ > 0.0 && s < streams_.size()) {
    sampled_next_[s] = repair_s + streams_[s].exponential(1.0 / mtbf_s_);
  }
}

FailureSchedule::State FailureSchedule::state() const {
  State state;
  state.script_next = script_next_;
  state.streams.reserve(streams_.size());
  for (const util::Rng& stream : streams_) {
    state.streams.push_back(stream.state());
  }
  state.sampled_next = sampled_next_;
  state.pdu_streams.reserve(pdu_streams_.size());
  for (const util::Rng& stream : pdu_streams_) {
    state.pdu_streams.push_back(stream.state());
  }
  state.pdu_next = pdu_next_;
  state.tor_streams.reserve(tor_streams_.size());
  for (const util::Rng& stream : tor_streams_) {
    state.tor_streams.push_back(stream.state());
  }
  state.tor_next = tor_next_;
  return state;
}

void FailureSchedule::restore(const State& state) {
  AEVA_REQUIRE(state.streams.size() == streams_.size() &&
                   state.sampled_next.size() == sampled_next_.size(),
               "failure-schedule state shape (", state.streams.size(), ", ",
               state.sampled_next.size(),
               ") does not match this schedule's (", streams_.size(), ", ",
               sampled_next_.size(), ")");
  AEVA_REQUIRE(state.pdu_streams.size() == pdu_streams_.size() &&
                   state.pdu_next.size() == pdu_next_.size() &&
                   state.tor_streams.size() == tor_streams_.size() &&
                   state.tor_next.size() == tor_next_.size(),
               "failure-schedule domain state shape (",
               state.pdu_streams.size(), ", ", state.tor_streams.size(),
               ") does not match this schedule's (", pdu_streams_.size(),
               ", ", tor_streams_.size(), ")");
  AEVA_REQUIRE(state.script_next <= script_.size(),
               "failure-schedule script cursor ", state.script_next,
               " past the ", script_.size(), "-event script");
  script_next_ = state.script_next;
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    streams_[s].set_state(state.streams[s]);
  }
  sampled_next_ = state.sampled_next;
  for (std::size_t d = 0; d < pdu_streams_.size(); ++d) {
    pdu_streams_[d].set_state(state.pdu_streams[d]);
  }
  pdu_next_ = state.pdu_next;
  for (std::size_t r = 0; r < tor_streams_.size(); ++r) {
    tor_streams_[r].set_state(state.tor_streams[r]);
  }
  tor_next_ = state.tor_next;
}

// --- scripted-trace I/O -----------------------------------------------------

// --- WindowDeadlines ---------------------------------------------------------

namespace {

/// Heap order: the earliest time on top, ties by ascending id.
struct Later {
  template <class Entry>
  bool operator()(const Entry& a, const Entry& b) const {
    return a.time > b.time || (a.time == b.time && a.id > b.id);
  }
};

}  // namespace

void WindowDeadlines::reserve() {
  const std::size_t servers = columns_.down->size();
  windows_.reserve(2 * servers);
  repairs_.reserve(servers);
  heals_.reserve(columns_.tor_heal_s->size());
  passed_.reserve(2 * servers);
  due_.reserve(2 * servers);
}

void WindowDeadlines::on_repair(int server) {
  push(repairs_, (*columns_.repair_s)[static_cast<std::size_t>(server)],
       server);
}

void WindowDeadlines::on_window(int server, double until) {
  push(windows_, until, server);
}

void WindowDeadlines::on_heal(int tor) {
  push(heals_, (*columns_.tor_heal_s)[static_cast<std::size_t>(tor)], tor);
}

void WindowDeadlines::rebuild() {
  windows_.clear();
  repairs_.clear();
  heals_.clear();
  passed_.clear();
  for (std::size_t s = 0; s < columns_.down->size(); ++s) {
    const int id = static_cast<int>(s);
    if ((*columns_.down)[s] != 0) {
      on_repair(id);
    }
    if ((*columns_.degrade_until)[s] != -kInf) {
      on_window(id, (*columns_.degrade_until)[s]);
    }
    if ((*columns_.brownout_until)[s] != -kInf) {
      on_window(id, (*columns_.brownout_until)[s]);
    }
  }
  for (std::size_t r = 0; r < columns_.tor_heal_s->size(); ++r) {
    if ((*columns_.tor_heal_s)[r] != kInf) {
      on_heal(static_cast<int>(r));
    }
  }
}

bool WindowDeadlines::live(Kind kind, const Entry& entry) const {
  const auto at = static_cast<std::size_t>(entry.id);
  switch (kind) {
    case Kind::kWindow:
      // Degrade and brownout ends share a heap: the expiry pass re-checks
      // both fields, so an entry is live while either holds its time.
      return (*columns_.degrade_until)[at] == entry.time ||
             (*columns_.brownout_until)[at] == entry.time;
    case Kind::kRepair:
      return (*columns_.down)[at] != 0 &&
             (*columns_.repair_s)[at] == entry.time;
    case Kind::kHeal:
      return (*columns_.tor_heal_s)[at] == entry.time;
  }
  return false;
}

void WindowDeadlines::push(std::vector<Entry>& heap, double time, int id) {
  heap.push_back(Entry{time, id});
  std::push_heap(heap.begin(), heap.end(), Later{});
}

void WindowDeadlines::pop(std::vector<Entry>& heap) {
  std::pop_heap(heap.begin(), heap.end(), Later{});
  heap.pop_back();
}

double WindowDeadlines::next(double now) {
  double next = kInf;
  while (!windows_.empty()) {
    const Entry top = windows_.front();
    if (live(Kind::kWindow, top)) {
      if (top.time > now) {
        next = top.time;
        break;
      }
      passed_.push_back(top.id);  // expires at the next windows_due()
    }
    pop(windows_);
  }
  return std::min({next, earliest_live(Kind::kRepair, repairs_),
                   earliest_live(Kind::kHeal, heals_)});
}

double WindowDeadlines::earliest_live(Kind kind, std::vector<Entry>& heap) {
  while (!heap.empty() && !live(kind, heap.front())) {
    pop(heap);
  }
  return heap.empty() ? kInf : heap.front().time;
}

void WindowDeadlines::pop_due(Kind kind, std::vector<Entry>& heap,
                              double horizon, std::vector<int>& out) {
  while (!heap.empty() && heap.front().time <= horizon) {
    if (live(kind, heap.front())) {
      out.push_back(heap.front().id);
    }
    pop(heap);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

const std::vector<int>& WindowDeadlines::windows_due(double horizon) {
  due_.swap(passed_);
  passed_.clear();
  pop_due(Kind::kWindow, windows_, horizon, due_);
  return due_;
}

const std::vector<int>& WindowDeadlines::repairs_due(double horizon) {
  due_.clear();
  pop_due(Kind::kRepair, repairs_, horizon, due_);
  return due_;
}

const std::vector<int>& WindowDeadlines::heals_due(double horizon) {
  due_.clear();
  pop_due(Kind::kHeal, heals_, horizon, due_);
  return due_;
}

namespace {

double parse_field(const std::string& field, std::size_t lineno,
                   const char* what) {
  const auto parsed = util::parse_double(field);
  AEVA_REQUIRE(parsed.has_value() && std::isfinite(*parsed),
               "failure script line ", lineno, ": malformed ", what, " '",
               field.substr(0, 32), "'");
  return *parsed;
}

}  // namespace

std::vector<FailureEvent> parse_failure_script(std::istream& in) {
  std::vector<FailureEvent> events;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string text = util::trim(line);
    if (text.empty() || text.front() == '#' || text.front() == ';') {
      continue;
    }
    const std::vector<std::string> fields = util::split_whitespace(text);
    FailureEvent event;
    if (fields.front() == "crash") {
      AEVA_REQUIRE(fields.size() == 4, "failure script line ", lineno,
                   ": crash takes <server> <at_s> <repair_s>, got ",
                   fields.size() - 1, " fields");
      event.kind = FailureKind::kCrash;
    } else if (fields.front() == "degrade") {
      AEVA_REQUIRE(fields.size() == 5, "failure script line ", lineno,
                   ": degrade takes <server> <at_s> <window_s> <mult>, got ",
                   fields.size() - 1, " fields");
      event.kind = FailureKind::kDegrade;
    } else if (fields.front() == "brownout") {
      AEVA_REQUIRE(fields.size() == 5, "failure script line ", lineno,
                   ": brownout takes <server> <at_s> <window_s> <cap_w>, "
                   "got ",
                   fields.size() - 1, " fields");
      event.kind = FailureKind::kBrownout;
    } else if (fields.front() == "pdu") {
      AEVA_REQUIRE(fields.size() == 4, "failure script line ", lineno,
                   ": pdu takes <feed> <at_s> <repair_s>, got ",
                   fields.size() - 1, " fields");
      event.kind = FailureKind::kPduFault;
    } else if (fields.front() == "tor") {
      AEVA_REQUIRE(fields.size() == 4, "failure script line ", lineno,
                   ": tor takes <switch> <at_s> <window_s>, got ",
                   fields.size() - 1, " fields");
      event.kind = FailureKind::kTorFault;
    } else {
      AEVA_REQUIRE(false, "failure script line ", lineno,
                   ": unknown event kind '", fields.front().substr(0, 32),
                   "'");
    }
    const double server = parse_field(fields[1], lineno, "server index");
    AEVA_REQUIRE(server >= 0.0 && server <= 1e9 &&
                     server == std::floor(server),
                 "failure script line ", lineno, ": server index ",
                 fields[1].substr(0, 32), " is not a small non-negative "
                 "integer");
    event.server = static_cast<int>(server);
    event.at_s = parse_field(fields[2], lineno, "event time");
    AEVA_REQUIRE(event.at_s >= 0.0, "failure script line ", lineno,
                 ": negative event time");
    event.duration_s = parse_field(fields[3], lineno, "duration");
    AEVA_REQUIRE(event.duration_s >= 0.0, "failure script line ", lineno,
                 ": negative duration");
    if (fields.size() == 5) {
      event.magnitude = parse_field(fields[4], lineno, "magnitude");
    }
    // Re-use the config-level range checks (server/domain bounds checked
    // at FailureConfig::validate time, when cloud and topology sizes are
    // known).
    validate_event(event, std::numeric_limits<int>::max(),
                   std::numeric_limits<int>::max(),
                   std::numeric_limits<int>::max(), lineno);
    events.push_back(event);
  }
  return events;
}

std::vector<FailureEvent> parse_failure_script(const std::string& text) {
  std::istringstream in(text);
  return parse_failure_script(in);
}

std::vector<FailureEvent> read_failure_script_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open failure script: " + path);
  }
  return parse_failure_script(in);
}

void write_failure_script(std::ostream& out,
                          const std::vector<FailureEvent>& events) {
  out << "# aeva failure script: kind server at_s duration_s [magnitude]\n";
  for (const FailureEvent& event : events) {
    out << to_string(event.kind) << ' ' << event.server << ' ' << event.at_s
        << ' ' << event.duration_s;
    if (event.kind == FailureKind::kDegrade ||
        event.kind == FailureKind::kBrownout) {
      out << ' ' << event.magnitude;
    }
    out << '\n';
  }
}

}  // namespace aeva::datacenter
