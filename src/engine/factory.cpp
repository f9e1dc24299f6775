#include "engine/factory.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/parse_num.hpp"
#include "engine/flow_engine.hpp"
#include "engine/packet_engine.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fattree.hpp"
#include "topo/hammingmesh.hpp"
#include "topo/hyperx.hpp"
#include "topo/torus.hpp"

namespace hxmesh::engine {

namespace {

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
  throw std::invalid_argument("make_topology: bad spec '" + spec + "': " +
                              why);
}

// Parses a whole token as an int — no trailing junk ("8x8" is not 8).
int parse_int(const std::string& spec, const std::string& token) {
  std::size_t pos = 0;
  int v = 0;
  try {
    v = std::stoi(token, &pos);
  } catch (const std::logic_error&) {  // stoi: invalid_argument/out_of_range
    bad_spec(spec, "bad number '" + token + "'");
  }
  if (pos != token.size()) bad_spec(spec, "bad number '" + token + "'");
  return v;
}

// Parses "WxH" into two positive ints.
std::pair<int, int> parse_dims(const std::string& spec,
                               const std::string& token) {
  auto x = token.find('x');
  if (x == std::string::npos || x == 0 || x + 1 >= token.size())
    bad_spec(spec, "expected WxH, got '" + token + "'");
  int w = parse_int(spec, token.substr(0, x));
  int h = parse_int(spec, token.substr(x + 1));
  if (w < 1 || h < 1) bad_spec(spec, "dimensions must be positive");
  return {w, h};
}

// Consumes an optional "key=value" trailing option; returns true if eaten.
bool option_value(const std::string& spec, const std::string& token,
                  const std::string& key, double* out) {
  if (token.rfind(key + "=", 0) != 0) return false;
  std::string value = token.substr(key.size() + 1);
  std::size_t pos = 0;
  try {
    *out = std::stod(value, &pos);
  } catch (const std::logic_error&) {
    bad_spec(spec, "bad value in '" + token + "'");
  }
  if (pos != value.size()) bad_spec(spec, "bad value in '" + token + "'");
  return true;
}

std::unique_ptr<topo::Topology> build_hxmesh(const std::string& spec,
                                             std::vector<std::string> args,
                                             int board_a, int board_b) {
  topo::HxMeshParams p;
  std::size_t i = 0;
  if (board_a == 0) {  // general form: first token is the board AxB
    if (args.empty()) bad_spec(spec, "hxmesh needs AxB:XxY");
    std::tie(p.a, p.b) = parse_dims(spec, args[i++]);
  } else {
    p.a = board_a;
    p.b = board_b;
  }
  if (i >= args.size()) bad_spec(spec, "missing board grid XxY");
  std::tie(p.x, p.y) = parse_dims(spec, args[i++]);
  for (; i < args.size(); ++i) {
    double v = 0;
    if (option_value(spec, args[i], "taper", &v))
      p.rail_taper = v;
    else
      bad_spec(spec, "unknown option '" + args[i] + "'");
  }
  return std::make_unique<topo::HammingMesh>(p);
}

std::unique_ptr<topo::Topology> parse_family(const std::string& spec,
                                             std::string family,
                                             std::vector<std::string> args) {
  if (family == "hxmesh") return build_hxmesh(spec, args, 0, 0);
  if (family == "hx2mesh") return build_hxmesh(spec, args, 2, 2);
  if (family == "hx4mesh") return build_hxmesh(spec, args, 4, 4);

  if (family == "hyperx" || family == "hx1mesh") {
    if (args.empty()) bad_spec(spec, "hyperx needs XxY");
    auto [x, y] = parse_dims(spec, args[0]);
    return std::make_unique<topo::HyperX>(topo::HyperXParams{.x = x, .y = y});
  }

  if (family == "fattree") {
    if (args.empty()) bad_spec(spec, "fattree needs an endpoint count");
    topo::FatTreeParams p;
    p.num_endpoints = parse_int(spec, args[0]);
    for (std::size_t i = 1; i < args.size(); ++i) {
      double v = 0;
      if (option_value(spec, args[i], "taper", &v))
        p.taper = v;
      else
        bad_spec(spec, "unknown option '" + args[i] + "'");
    }
    return std::make_unique<topo::FatTree>(p);
  }

  if (family == "dragonfly") {
    if (args.empty()) bad_spec(spec, "dragonfly needs 'small', 'large', or "
                                     "A:P:H:G");
    if (args[0] == "small")
      return std::make_unique<topo::Dragonfly>(
          topo::DragonflyParams{.routers_per_group = 16,
                                .endpoints_per_router = 8,
                                .global_per_router = 8,
                                .groups = 8});
    if (args[0] == "large")
      return std::make_unique<topo::Dragonfly>(
          topo::DragonflyParams{.routers_per_group = 32,
                                .endpoints_per_router = 17,
                                .global_per_router = 16,
                                .groups = 30});
    if (args.size() != 4) bad_spec(spec, "explicit dragonfly needs A:P:H:G");
    return std::make_unique<topo::Dragonfly>(topo::DragonflyParams{
        .routers_per_group = parse_int(spec, args[0]),
        .endpoints_per_router = parse_int(spec, args[1]),
        .global_per_router = parse_int(spec, args[2]),
        .groups = parse_int(spec, args[3])});
  }

  if (family == "torus") {
    if (args.empty()) bad_spec(spec, "torus needs XxY");
    topo::TorusParams p;
    std::tie(p.width, p.height) = parse_dims(spec, args[0]);
    for (std::size_t i = 1; i < args.size(); ++i) {
      if (args[i].rfind("board=", 0) == 0)
        std::tie(p.board_a, p.board_b) = parse_dims(spec, args[i].substr(6));
      else
        bad_spec(spec, "unknown option '" + args[i] + "'");
    }
    return std::make_unique<topo::Torus>(p);
  }

  bad_spec(spec, "unknown family '" + family + "'");
}

std::unique_ptr<topo::Topology> parse_topology(const std::string& spec) {
  auto args = split(spec, ':');
  std::string family = args.front();
  std::transform(family.begin(), family.end(), family.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  args.erase(args.begin());

  // A trailing fault group ("faults=links:<rate>[:seed=S]") is a property
  // of any family: peel it off before the family parser sees the args,
  // build the healthy fabric, then knock the links out. The fault tokens
  // stay part of the raw spec string, so ResultCache keys and sharded
  // sweeps distinguish degraded fabrics for free.
  topo::FaultSpec faults;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i].rfind("faults=", 0) != 0) continue;
    std::string text = args[i];
    for (std::size_t j = i + 1; j < args.size(); ++j) text += ":" + args[j];
    try {
      faults = topo::FaultSpec::parse(text);
    } catch (const std::invalid_argument& e) {
      bad_spec(spec, e.what());
    }
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(i), args.end());
    break;
  }

  auto topology = parse_family(spec, std::move(family), std::move(args));
  topology->apply_faults(faults);
  return topology;
}

}  // namespace

std::unique_ptr<SimEngine> make_engine(const std::string& name,
                                       const topo::Topology& topology,
                                       int threads) {
  if (name == "flow") {
    flow::FlowSolverConfig config;
    config.threads = threads;
    return std::make_unique<FlowEngine>(topology, config);
  }
  if (name == "packet") return std::make_unique<PacketEngine>(topology);
  throw std::invalid_argument("make_engine: unknown engine '" + name +
                              "' (known: flow, packet)");
}

std::vector<std::string> engine_names() { return {"flow", "packet"}; }

std::vector<std::string> topology_grammar() {
  return {
      "hxmesh:AxB:XxY[:taper=F]   a*b boards on an x*y grid (HammingMesh)",
      "hx2mesh:XxY[:taper=F]      shorthand, 2x2 boards",
      "hx4mesh:XxY[:taper=F]      shorthand, 4x4 boards",
      "hyperx:XxY                 2D HyperX (the paper's Hx1Mesh equivalent)",
      "fattree:N[:taper=F]        N endpoints, taper = up:down at the leaves",
      "dragonfly:small|large      the paper's two design points",
      "dragonfly:A:P:H:G          explicit a/p/h/g configuration",
      "torus:XxY[:board=AxB]      2D torus, PCB traces inside each board",
      "any:faults=links:R[:seed=S] trailing fault group: knock out a",
      "                           fraction R (or integer count R) of cables,",
      "                           seeded and deterministic",
  };
}

std::unique_ptr<topo::Topology> make_topology(const std::string& spec) {
  return parse_topology(spec);
}

std::string paper_topology_spec(topo::PaperTopology which,
                                topo::ClusterSize size) {
  const bool small = size == topo::ClusterSize::kSmall;
  switch (which) {
    case topo::PaperTopology::kFatTree:
      return small ? "fattree:1024" : "fattree:16384";
    case topo::PaperTopology::kFatTree50:
      return small ? "fattree:1024:taper=0.5" : "fattree:16384:taper=0.5";
    case topo::PaperTopology::kFatTree75:
      return small ? "fattree:1024:taper=0.25" : "fattree:16384:taper=0.25";
    case topo::PaperTopology::kDragonfly:
      return small ? "dragonfly:small" : "dragonfly:large";
    case topo::PaperTopology::kHyperX:
      return small ? "hyperx:32x32" : "hyperx:128x128";
    case topo::PaperTopology::kHx2Mesh:
      return small ? "hx2mesh:16x16" : "hx2mesh:64x64";
    case topo::PaperTopology::kHx4Mesh:
      return small ? "hx4mesh:8x8" : "hx4mesh:32x32";
    case topo::PaperTopology::kTorus:
      return small ? "torus:32x32" : "torus:128x128";
  }
  throw std::invalid_argument("paper_topology_spec: bad enum");
}

}  // namespace hxmesh::engine
