/// \file fuzz_topology.cpp
/// Fuzz target for the topology-spec parser (datacenter/topology).
///
/// Contract: arbitrary text either parses into a validated Topology or is
/// rejected with std::invalid_argument (unknown keyword, wrong arity,
/// non-integer ids, non-dense id sets, duplicate servers). Accepted
/// topologies must satisfy the structural invariants the class documents
/// — dense ids, total server→domain maps, ascending member spans — and
/// must survive a write_topology → parse_topology round trip with the
/// same rack declarations. The rack spread derived from an accepted
/// topology must pass core::SpreadConfig::validate() — its domain ids are
/// the dense rack ids — and first-fit under it must place one VM per rack.

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/first_fit.hpp"
#include "datacenter/topology.hpp"

namespace {

void expect(bool cond, const char* what) {
  if (!cond) {
    throw std::logic_error(std::string("fuzz_topology invariant failed: ") +
                           what);
  }
}

void check_invariants(const aeva::datacenter::Topology& topo) {
  expect(topo.server_count() >= 0, "server count non-negative");
  if (topo.empty()) {
    expect(topo.server_count() == 0, "empty topology has no servers");
    return;
  }
  expect(topo.rack_count() >= 1, "at least one rack");
  expect(topo.pdu_count() >= 1 && topo.pdu_count() <= topo.rack_count(),
         "pdu ids dense and rack-bounded");
  expect(topo.tor_count() >= 1 && topo.tor_count() <= topo.rack_count(),
         "tor ids dense and rack-bounded");

  // The server → domain maps must be total and consistent with the rack
  // declarations in both directions.
  int covered = 0;
  for (const aeva::datacenter::RackSpec& rack : topo.racks()) {
    expect(!rack.servers.empty(), "racks are non-empty");
    int prev = -1;
    for (const int server : rack.servers) {
      expect(server > prev, "member lists strictly ascending");
      prev = server;
      expect(server >= 0 && server < topo.server_count(),
             "server ids dense");
      expect(topo.rack_of(server) == rack.rack, "rack_of matches spec");
      expect(topo.pdu_of(server) == rack.pdu, "pdu_of matches spec");
      expect(topo.tor_of(server) == rack.tor, "tor_of matches spec");
      ++covered;
    }
  }
  expect(covered == topo.server_count(), "every server in exactly one rack");

  // Domain member spans partition the servers, ascending.
  for (const bool is_pdu : {true, false}) {
    const int domains = is_pdu ? topo.pdu_count() : topo.tor_count();
    int members = 0;
    for (int d = 0; d < domains; ++d) {
      const std::span<const int> span =
          is_pdu ? topo.servers_on_pdu(d) : topo.servers_on_tor(d);
      int prev = -1;
      for (const int server : span) {
        expect(server > prev, "domain spans strictly ascending");
        prev = server;
        expect((is_pdu ? topo.pdu_of(server) : topo.tor_of(server)) == d,
               "span membership matches server map");
      }
      members += static_cast<int>(span.size());
    }
    expect(members == topo.server_count(), "domain spans partition servers");
  }
}

/// The topology → spread bridge: every domain id in range, so the
/// allocators' per-domain tallies stay inside their bounds.
void check_spread(const aeva::datacenter::Topology& topo) {
  if (topo.empty()) {
    return;
  }
  aeva::core::SpreadConfig spread = aeva::datacenter::spread_by_rack(topo, 1);
  try {
    spread.validate();
  } catch (const std::invalid_argument&) {
    expect(false, "rack spread of an accepted topology validates");
  }
  const int width = std::min(topo.rack_count(), 4);
  std::vector<aeva::core::VmRequest> vms(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    vms[static_cast<std::size_t>(i)].id = i + 1;
  }
  std::vector<aeva::core::ServerState> servers;
  for (int s = 0; s < topo.server_count(); ++s) {
    servers.push_back(aeva::core::ServerState{s, {}, false, 0});
  }
  aeva::core::FirstFitAllocator ff(1);
  ff.set_spread(std::move(spread));
  const aeva::core::AllocationResult result = ff.allocate(vms, servers);
  expect(result.complete, "one VM per rack fits an empty fleet");
  std::set<int> racks;
  for (const aeva::core::Placement& p : result.placements) {
    expect(racks.insert(topo.rack_of(p.server_id)).second,
           "spread cap of one VM per rack holds");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);

  aeva::datacenter::Topology topo;
  try {
    topo = aeva::datacenter::parse_topology(text);
  } catch (const std::invalid_argument&) {
    return 0;
  }

  check_invariants(topo);
  check_spread(topo);

  // Round trip: the writer's output must re-parse to the same structure.
  std::ostringstream out;
  aeva::datacenter::write_topology(out, topo);
  aeva::datacenter::Topology reparsed;
  try {
    reparsed = aeva::datacenter::parse_topology(out.str());
  } catch (const std::invalid_argument&) {
    expect(false, "writer output must re-parse");
  }
  expect(reparsed.rack_count() == topo.rack_count(),
         "round trip preserves rack count");
  for (int r = 0; r < topo.rack_count(); ++r) {
    const aeva::datacenter::RackSpec& a = topo.racks()[r];
    const aeva::datacenter::RackSpec& b = reparsed.racks()[r];
    expect(a.rack == b.rack && a.pdu == b.pdu && a.tor == b.tor &&
               a.servers == b.servers,
           "round trip preserves rack declarations");
  }
  return 0;
}
