#include "sim/sweep.hpp"

#include <algorithm>
#include <cstdio>

namespace nrn::sim {

namespace {

// Hard limits on expansion: fail loudly instead of silently materializing
// a runaway grid.
constexpr std::size_t kMaxAxisItems = 4096;
constexpr std::size_t kMaxCells = 100000;

[[noreturn]] void bad_spec(const std::string& what) { throw SpecError(what); }

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  return s.substr(b, e - b);
}

/// Splits on `sep` at brace depth 0, trimming each piece.
std::vector<std::string> split_top_level(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string current;
  int depth = 0;
  for (const char c : s) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    if (depth < 0) bad_spec("unmatched '}' in '" + s + "'");
    if (c == sep && depth == 0) {
      parts.push_back(trim(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (depth != 0) bad_spec("unmatched '{' in '" + s + "'");
  parts.push_back(trim(current));
  return parts;
}

/// If `item` is a bare integer range (lo..hi, lo..hi+d, lo..hi*f), expands
/// it into `out` and returns true; otherwise leaves `out` alone.  A string
/// containing ".." whose left side is not an integer is not a range (it is
/// passed through literally and fails later as whatever spec it claims to
/// be).
bool try_expand_range(const std::string& item, std::vector<std::string>& out) {
  const auto dots = item.find("..");
  if (dots == std::string::npos) return false;
  const std::string lhs = item.substr(0, dots);
  std::int64_t lo = 0;
  try {
    lo = parse_spec_int(lhs, "range start");
  } catch (const SpecError&) {
    return false;  // not a range at all
  }
  // From here on the item must be a well-formed range.
  std::string rest = item.substr(dots + 2);
  char op = 0;
  std::int64_t step = 1;
  const auto op_pos = rest.find_first_of("*+");
  if (op_pos != std::string::npos) {
    op = rest[op_pos];
    step = parse_spec_int(rest.substr(op_pos + 1), "range step");
    rest = rest.substr(0, op_pos);
  }
  const std::int64_t hi = parse_spec_int(rest, "range end");
  if (lo > hi) bad_spec("range '" + item + "': start exceeds end");
  if (op == '*') {
    if (lo < 1) bad_spec("range '" + item + "': geometric start must be >= 1");
    if (step < 2) bad_spec("range '" + item + "': geometric factor must be >= 2");
  } else if (step < 1) {
    bad_spec("range '" + item + "': step must be >= 1");
  }
  std::size_t count = 0;
  for (std::int64_t v = lo; v <= hi;) {
    if (++count > kMaxAxisItems)
      bad_spec("range '" + item + "' expands to more than " +
               std::to_string(kMaxAxisItems) + " values");
    out.push_back(std::to_string(v));
    if (op == '*') {
      if (v > hi / step) break;  // next value would overflow past hi
      v *= step;
    } else {
      if (v > hi - step) break;
      v += step;
    }
  }
  return true;
}

[[noreturn]] void over_cap(const std::string& what) {
  bad_spec(what + " expands to more than " + std::to_string(kMaxAxisItems) +
           " items");
}

/// Brace expansion of one item (recursively over the suffix); brace-group
/// members may themselves be ranges.  The leftmost group varies slowest.
/// The cap applies to every intermediate product too, so a multi-group
/// item fails with SpecError instead of materializing a runaway cross
/// product.
void expand_item(const std::string& item, std::vector<std::string>& out) {
  const auto open = item.find('{');
  if (open == std::string::npos) {
    if (!try_expand_range(item, out)) out.push_back(item);
    if (out.size() > kMaxAxisItems) over_cap("'" + item + "'");
    return;
  }
  const auto close = item.find('}', open);
  if (close == std::string::npos) bad_spec("unmatched '{' in '" + item + "'");
  if (item.find('{', open + 1) < close)
    bad_spec("nested braces in '" + item + "'");
  const std::string prefix = item.substr(0, open);
  const std::string body = item.substr(open + 1, close - open - 1);
  const std::string suffix = item.substr(close + 1);

  std::vector<std::string> suffixes;
  expand_item(suffix, suffixes);

  std::vector<std::string> values;
  for (const auto& part : split_top_level(body, ',')) {
    if (part.empty()) bad_spec("empty brace member in '" + item + "'");
    values.clear();
    if (!try_expand_range(part, values)) values.push_back(part);
    for (const auto& value : values)
      for (const auto& rest : suffixes) {
        if (out.size() >= kMaxAxisItems) over_cap("'" + item + "'");
        out.push_back(prefix + value + rest);
      }
  }
}

}  // namespace

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string fnv1a64_hex(std::string_view text) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(text)));
  return buf;
}

std::vector<std::string> expand_spec_list(const std::string& value) {
  std::vector<std::string> out;
  for (const auto& item : split_top_level(value, ',')) {
    if (item.empty()) bad_spec("empty item in list '" + value + "'");
    expand_item(item, out);
    if (out.size() > kMaxAxisItems)
      bad_spec("list '" + value + "' expands to more than " +
               std::to_string(kMaxAxisItems) + " items");
  }
  return out;
}

std::string SweepCell::key() const {
  return "topology=" + scenario.topology.text + "|fault=" +
         scenario.fault_text + "|source=" + std::to_string(scenario.source) +
         "|k=" + std::to_string(scenario.k) +
         "|seed=" + std::to_string(scenario.seed) + "|protocol=" + protocol +
         "|trials=" + std::to_string(trials) +
         (scenario.channel_text == "none" ? ""
                                          : "|channel=" +
                                                scenario.channel_text) +
         (trace ? "|trace=1" : "");
}

SweepPlan SweepPlan::parse(const std::string& spec) {
  if (spec.find_first_of("\n\r") != std::string::npos)
    bad_spec("sweep plan must be a single line");
  std::string body = trim(spec);
  if (body.rfind("sweep:", 0) == 0) body = trim(body.substr(6));
  if (body.empty()) bad_spec("empty sweep plan");

  SweepPlan plan;
  plan.text = spec;

  std::vector<std::string> seen;
  auto once = [&](const std::string& canonical) {
    if (std::find(seen.begin(), seen.end(), canonical) != seen.end())
      bad_spec("duplicate sweep clause '" + canonical + "'");
    seen.push_back(canonical);
  };

  std::vector<std::string> k_items;
  for (const auto& clause : split_top_level(body, ';')) {
    if (clause.empty()) continue;  // tolerate a trailing ';'
    const auto eq = clause.find('=');
    if (eq == std::string::npos)
      bad_spec("sweep clause '" + clause + "' is not key=value");
    const std::string key = trim(clause.substr(0, eq));
    const std::string value = trim(clause.substr(eq + 1));
    if (value.empty()) bad_spec("sweep clause '" + key + "' has no value");
    if (key == "topology" || key == "topologies") {
      once("topology");
      plan.topologies = expand_spec_list(value);
    } else if (key == "fault" || key == "faults") {
      once("fault");
      plan.faults = expand_spec_list(value);
    } else if (key == "channel" || key == "channels") {
      once("channel");
      plan.channels = expand_spec_list(value);
    } else if (key == "protocol" || key == "protocols") {
      once("protocols");
      plan.protocols = expand_spec_list(value);
    } else if (key == "k") {
      once("k");
      k_items = expand_spec_list(value);
    } else if (key == "source") {
      once("source");
      const std::int64_t source = parse_spec_int(value, "sweep source");
      if (source < 0 || source > 0x7fffffff)
        bad_spec("sweep source '" + value + "' is out of range");
      plan.source = static_cast<graph::NodeId>(source);
    } else if (key == "trials") {
      once("trials");
      const std::int64_t trials = parse_spec_int(value, "sweep trials");
      if (trials < 1 || trials > 10'000'000)
        bad_spec("sweep trials '" + value + "' is out of range");
      plan.trials = static_cast<int>(trials);
    } else if (key == "seed") {
      once("seed");
      plan.master_seed = parse_spec_uint(value, "sweep seed");
    } else if (key == "trace") {
      once("trace");
      const std::int64_t trace = parse_spec_int(value, "sweep trace");
      if (trace != 0 && trace != 1)
        bad_spec("sweep trace '" + value + "' must be 0 or 1");
      plan.trace = trace == 1;
    } else {
      bad_spec("unknown sweep clause '" + key + "'");
    }
  }

  if (plan.topologies.empty()) bad_spec("sweep plan needs a topology= clause");
  if (plan.protocols.empty()) bad_spec("sweep plan needs a protocols= clause");
  if (plan.faults.empty()) plan.faults = {"none"};
  if (plan.channels.empty()) plan.channels = {"none"};
  if (k_items.empty()) k_items = {"1"};
  if (plan.trials < 1) bad_spec("sweep trials must be positive");
  if (plan.source < 0) bad_spec("sweep source must be non-negative");

  for (const auto& item : k_items) {
    const std::int64_t k = parse_spec_int(item, "sweep k");
    if (k < 1) bad_spec("sweep k must be positive");
    plan.ks.push_back(k);
  }
  // Validate the axes up front so a bad 500-cell plan fails with one error
  // naming the offending spec, not mid-run.
  for (const auto& topology : plan.topologies) TopologySpec::parse(topology);
  for (const auto& fault : plan.faults) parse_fault_spec(fault);
  for (const auto& channel : plan.channels)
    parse_channel_spec(channel, radio::ChannelModel::faultless());
  for (const auto& protocol : plan.protocols)
    if (protocol.empty()) bad_spec("empty protocol name in sweep plan");

  const std::size_t total = plan.topologies.size() * plan.faults.size() *
                            plan.channels.size() * plan.ks.size() *
                            plan.protocols.size();
  if (total > kMaxCells)
    bad_spec("sweep plan expands to " + std::to_string(total) +
             " cells (cap " + std::to_string(kMaxCells) + ")");

  plan.cells.reserve(total);
  int index = 0;
  for (const auto& topology : plan.topologies) {
    for (const auto& fault : plan.faults) {
      for (const auto& channel : plan.channels) {
        for (const std::int64_t k : plan.ks) {
          // The scenario seed mixes the master seed with the scenario
          // identity only: protocols sharing a scenario get identical
          // graphs and fault tapes, and unrelated cells keep their seeds
          // when axes grow or shrink.  A "none" channel contributes
          // nothing to the identity, so pre-channel plans reproduce their
          // exact seeds.
          const std::string identity =
              "topology=" + topology + "|fault=" + fault + "|source=" +
              std::to_string(plan.source) + "|k=" + std::to_string(k) +
              (channel == "none" ? "" : "|channel=" + channel);
          std::uint64_t mix = plan.master_seed ^ fnv1a64(identity);
          const std::uint64_t cell_seed = splitmix64(mix);
          const Scenario scenario = Scenario::parse(
              topology, fault, plan.source, k, cell_seed, channel);
          for (const auto& protocol : plan.protocols) {
            SweepCell cell;
            cell.index = index++;
            cell.scenario = scenario;
            cell.protocol = protocol;
            cell.trials = plan.trials;
            cell.trace = plan.trace;
            plan.cells.push_back(std::move(cell));
          }
        }
      }
    }
  }
  return plan;
}

}  // namespace nrn::sim
