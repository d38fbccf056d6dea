#include "modeldb/database.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace aeva::modeldb {

using workload::ClassCounts;

namespace {

bool key_less(const Record& a, const Record& b) { return a.key < b.key; }

int l1_distance(ClassCounts a, ClassCounts b) {
  return std::abs(a.cpu - b.cpu) + std::abs(a.mem - b.mem) +
         std::abs(a.io - b.io);
}

}  // namespace

ModelDatabase::ModelDatabase(std::vector<Record> records, BaseParameters base)
    : records_(std::move(records)), base_(base) {
  AEVA_REQUIRE(!records_.empty(), "model database needs at least one record");
  std::sort(records_.begin(), records_.end(), key_less);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    AEVA_REQUIRE(r.key.total() > 0, "record with empty key");
    AEVA_REQUIRE(r.key.cpu >= 0 && r.key.mem >= 0 && r.key.io >= 0,
                 "record with negative key component");
    AEVA_REQUIRE(r.time_s > 0.0 && r.energy_j > 0.0,
                 "record with non-positive time/energy for key (", r.key.cpu,
                 ",", r.key.mem, ",", r.key.io, ")");
    if (i > 0) {
      AEVA_REQUIRE(records_[i - 1].key < r.key,
                   "duplicate database key (", r.key.cpu, ",", r.key.mem, ",",
                   r.key.io, ")");
    }
    extent_.cpu = std::max(extent_.cpu, r.key.cpu);
    extent_.mem = std::max(extent_.mem, r.key.mem);
    extent_.io = std::max(extent_.io, r.key.io);
  }
  energy_monotone_ = [&] {
    for (const Record& r : records_) {
      for (const workload::ProfileClass profile : workload::kAllProfileClasses) {
        if (r.key.of(profile) == 0) {
          continue;
        }
        ClassCounts pred = r.key;
        --pred.of(profile);
        if (pred.total() == 0) {
          continue;  // energy_j > 0 already validated above
        }
        const Record* below = find(pred);
        // A missing predecessor means the grid has holes (hand-built
        // databases); claim nothing rather than an unsound bound.
        if (below == nullptr || r.energy_j < below->energy_j) {
          return false;
        }
      }
    }
    return true;
  }();
  for (const workload::ProfileClass profile : workload::kAllProfileClasses) {
    ClassCounts solo;
    solo.of(profile) = 1;
    solo_energy_j_[static_cast<std::size_t>(profile)] = estimate(solo).energy_j;
  }
}

const Record* ModelDatabase::find(ClassCounts key) const noexcept {
  Record probe;
  probe.key = key;
  const auto it =
      std::lower_bound(records_.begin(), records_.end(), probe, key_less);
  if (it != records_.end() && it->key == key) {
    return &*it;
  }
  return nullptr;
}

namespace {

/// Clamps a key into the measured grid: pure keys clamp to the base-test
/// extent, mixed keys to the combination box [0..OSC]×[0..OSM]×[0..OSI].
ClassCounts clamp_to_grid(ClassCounts key, ClassCounts extent,
                          const BaseParameters& base) {
  ClassCounts clamped = key;
  const int nonzero = (key.cpu > 0 ? 1 : 0) + (key.mem > 0 ? 1 : 0) +
                      (key.io > 0 ? 1 : 0);
  if (nonzero == 1) {
    clamped.cpu = std::min(clamped.cpu, extent.cpu);
    clamped.mem = std::min(clamped.mem, extent.mem);
    clamped.io = std::min(clamped.io, extent.io);
  } else {
    clamped.cpu = std::min(clamped.cpu, base.cpu.os());
    clamped.mem = std::min(clamped.mem, base.mem.os());
    clamped.io = std::min(clamped.io, base.io.os());
  }
  return clamped;
}

}  // namespace

Record ModelDatabase::estimate(ClassCounts key) const {
  AEVA_REQUIRE(key.total() > 0, "cannot estimate an empty allocation");
  AEVA_REQUIRE(key.cpu >= 0 && key.mem >= 0 && key.io >= 0,
               "negative VM count in key");
  if (const Record* exact = find(key)) {
    return *exact;
  }

  const ClassCounts clamped = clamp_to_grid(key, extent_, base_);
  const Record* anchor = find(clamped);
  if (anchor == nullptr) {
    // Hole in the grid: fall back to the nearest measured key by L1
    // distance (ties resolved by the sort order, i.e. the first record).
    int best = std::numeric_limits<int>::max();
    for (const Record& r : records_) {
      const int d = l1_distance(r.key, key);
      if (d < best) {
        best = d;
        anchor = &r;
      }
    }
  }
  AEVA_INVARIANT(anchor != nullptr, "no anchor record found");

  // "Use the matching values proportionally": scale the anchor outcome by
  // the total-VM ratio.
  const double scale = static_cast<double>(key.total()) /
                       static_cast<double>(anchor->key.total());
  Record out = *anchor;
  out.key = key;
  out.time_s = anchor->time_s * scale;
  out.energy_j = anchor->energy_j * scale;
  out.avg_time_vm_s = out.time_s / key.total();
  out.edp = out.energy_j * out.time_s;
  out.time_cpu_s = anchor->time_cpu_s * scale;
  out.time_mem_s = anchor->time_mem_s * scale;
  out.time_io_s = anchor->time_io_s * scale;
  return out;
}

Record ModelDatabase::estimate_extrapolated(ClassCounts key) const {
  AEVA_REQUIRE(key.total() > 0, "cannot estimate an empty allocation");
  AEVA_REQUIRE(key.cpu >= 0 && key.mem >= 0 && key.io >= 0,
               "negative VM count in key");
  if (const Record* exact = find(key)) {
    return *exact;
  }
  const ClassCounts clamped = clamp_to_grid(key, extent_, base_);
  const Record* anchor = find(clamped);
  if (anchor == nullptr) {
    return estimate(key);  // grid hole: proportional fallback
  }

  // Per-axis multiplicative extrapolation from the finite-difference
  // growth ratio at the grid edge.
  double time_factor = 1.0;
  double energy_factor = 1.0;
  for (const workload::ProfileClass profile : workload::kAllProfileClasses) {
    const int over = key.of(profile) - clamped.of(profile);
    if (over <= 0) {
      continue;
    }
    ClassCounts below_key = clamped;
    --below_key.of(profile);
    const Record* below =
        below_key.total() > 0 ? find(below_key) : nullptr;
    double time_ratio;
    double energy_ratio;
    if (below != nullptr && below->time_s > 0.0 && below->energy_j > 0.0) {
      // Contention slope at the edge; never below linear-per-VM growth.
      const double linear =
          static_cast<double>(clamped.total() + 1) / clamped.total();
      time_ratio = std::max(linear, anchor->time_s / below->time_s);
      energy_ratio = std::max(linear, anchor->energy_j / below->energy_j);
    } else {
      const double linear =
          static_cast<double>(clamped.total() + 1) / clamped.total();
      time_ratio = linear;
      energy_ratio = linear;
    }
    time_factor *= std::pow(time_ratio, over);
    energy_factor *= std::pow(energy_ratio, over);
  }

  Record out = *anchor;
  out.key = key;
  out.time_s = anchor->time_s * time_factor;
  out.energy_j = anchor->energy_j * energy_factor;
  out.avg_time_vm_s = out.time_s / key.total();
  out.edp = out.energy_j * out.time_s;
  out.time_cpu_s = anchor->time_cpu_s * time_factor;
  out.time_mem_s = anchor->time_mem_s * time_factor;
  out.time_io_s = anchor->time_io_s * time_factor;
  return out;
}

util::CsvTable ModelDatabase::to_csv() const {
  util::CsvTable table;
  table.header = {"Ncpu",   "Nmem",     "Nio",     "Time",    "avgTimeVM",
                  "Energy", "MaxPower", "EDP",     "timeCpu", "timeMem",
                  "timeIo"};
  for (const Record& r : records_) {
    table.rows.push_back({
        std::to_string(r.key.cpu),
        std::to_string(r.key.mem),
        std::to_string(r.key.io),
        util::format_fixed(r.time_s, 3),
        util::format_fixed(r.avg_time_vm_s, 3),
        util::format_fixed(r.energy_j, 1),
        util::format_fixed(r.max_power_w, 2),
        util::format_fixed(r.edp, 1),
        util::format_fixed(r.time_cpu_s, 3),
        util::format_fixed(r.time_mem_s, 3),
        util::format_fixed(r.time_io_s, 3),
    });
  }
  return table;
}

util::CsvTable ModelDatabase::aux_to_csv() const {
  util::CsvTable table;
  table.header = {"param", "value"};
  const auto put = [&](const std::string& name, double value) {
    table.rows.push_back({name, util::format_fixed(value, 3)});
  };
  put("OSPC", base_.cpu.osp);
  put("OSEC", base_.cpu.ose);
  put("TC", base_.cpu.solo_time_s);
  put("OSPM", base_.mem.osp);
  put("OSEM", base_.mem.ose);
  put("TM", base_.mem.solo_time_s);
  put("OSPI", base_.io.osp);
  put("OSEI", base_.io.ose);
  put("TI", base_.io.solo_time_s);
  return table;
}

namespace {

double cell_double(const util::CsvTable& table, const util::CsvRow& row,
                   const std::string& column) {
  const auto parsed = util::parse_double(row[table.column(column)]);
  // Non-finite cells are rejected here rather than propagated: an `inf`
  // energy would silently poison every downstream EDP/rank computation
  // (found by fuzz_modeldb, corpus/modeldb/reject_inf_energy.csv).
  AEVA_REQUIRE(parsed.has_value() && std::isfinite(*parsed),
               "bad numeric cell in column ", column);
  return *parsed;
}

/// Largest admissible VM count per class in a loaded key. Far above any
/// real testbed (the paper's cap is 16 VMs/server) while keeping
/// ClassCounts::total() and L1 distances free of signed overflow for any
/// combination of loaded keys (found by fuzz_modeldb,
/// corpus/modeldb/reject_huge_count.csv).
constexpr long long kMaxClassCount = 1000000;

int cell_count(const util::CsvTable& table, const util::CsvRow& row,
               const std::string& column) {
  const auto parsed = util::parse_int(row[table.column(column)]);
  AEVA_REQUIRE(parsed.has_value(), "bad integer cell in column ", column);
  AEVA_REQUIRE(*parsed >= 0 && *parsed <= kMaxClassCount, "VM count in column ",
               column, " out of range [0, ", kMaxClassCount, "]: ", *parsed);
  return static_cast<int>(*parsed);
}

}  // namespace

ModelDatabase ModelDatabase::from_csv(const util::CsvTable& records,
                                      const util::CsvTable& aux) {
  std::vector<Record> parsed;
  parsed.reserve(records.rows.size());
  for (const auto& row : records.rows) {
    Record r;
    r.key.cpu = cell_count(records, row, "Ncpu");
    r.key.mem = cell_count(records, row, "Nmem");
    r.key.io = cell_count(records, row, "Nio");
    r.time_s = cell_double(records, row, "Time");
    r.avg_time_vm_s = cell_double(records, row, "avgTimeVM");
    r.energy_j = cell_double(records, row, "Energy");
    r.max_power_w = cell_double(records, row, "MaxPower");
    r.edp = cell_double(records, row, "EDP");
    if (records.has_column("timeCpu")) {
      r.time_cpu_s = cell_double(records, row, "timeCpu");
      r.time_mem_s = cell_double(records, row, "timeMem");
      r.time_io_s = cell_double(records, row, "timeIo");
    }
    parsed.push_back(r);
  }

  BaseParameters base;
  for (const auto& row : aux.rows) {
    const std::string& name = row[aux.column("param")];
    const double value = cell_double(aux, row, "value");
    // OS*/T* counts feed int fields: bound before the cast (an oversized
    // double→int conversion is UB, not a wrap).
    const auto count = [&]() {
      AEVA_REQUIRE(value >= 0.0 && value <= static_cast<double>(kMaxClassCount),
                   "auxiliary parameter ", name, " out of range [0, ",
                   kMaxClassCount, "]: ", value);
      return static_cast<int>(value);
    };
    if (name == "OSPC") base.cpu.osp = count();
    else if (name == "OSEC") base.cpu.ose = count();
    else if (name == "TC") base.cpu.solo_time_s = value;
    else if (name == "OSPM") base.mem.osp = count();
    else if (name == "OSEM") base.mem.ose = count();
    else if (name == "TM") base.mem.solo_time_s = value;
    else if (name == "OSPI") base.io.osp = count();
    else if (name == "OSEI") base.io.ose = count();
    else if (name == "TI") base.io.solo_time_s = value;
    else AEVA_REQUIRE(false, "unknown auxiliary parameter: ", name);
  }
  return ModelDatabase(std::move(parsed), base);
}

void ModelDatabase::save(const std::string& path,
                         const std::string& aux_path) const {
  util::write_csv_file(path, to_csv());
  util::write_csv_file(aux_path, aux_to_csv());
}

ModelDatabase ModelDatabase::load(const std::string& path,
                                  const std::string& aux_path) {
  return from_csv(util::read_csv_file(path), util::read_csv_file(aux_path));
}

}  // namespace aeva::modeldb
