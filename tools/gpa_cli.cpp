// gpa — command-line driver for the library. Lets users build, inspect,
// and persist masks, run any kernel against the reference, and query
// the memory model without writing C++.
//
//   gpa mask --pattern local --length 1024 --window 8 [--out mask.bin]
//   gpa info --in mask.bin
//   gpa run --pattern bigbird --length 2048 --dim 64 [--causal] [--fp16]
//   gpa memmodel --algo csr --dtype fp16 --dim 64 --sf 1e-4
//                [--device a100|l40|v100|h100|rtx4090]
//   gpa stats <host:port>  [--json]   (scrape a live node's metrics registry)
//
// Exit code 0 on success (and verification OK for `run`), 1 otherwise.

#include <chrono>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "baselines/reference_attention.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/version.hpp"
#include "core/graph_attention.hpp"
#include "graph/degree.hpp"
#include "memmodel/memory_model.hpp"
#include "net/frame.hpp"
#include "net/node.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "simd/simd.hpp"
#include "sparse/build.hpp"
#include "sparse/nnz.hpp"
#include "sparse/presets.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace gpa;

struct Args {
  std::string command;
  std::map<std::string, std::string> kv;
  bool flag(const std::string& name) const { return kv.count("--" + name) > 0; }
  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = kv.find("--" + name);
    return it == kv.end() ? fallback : it->second;
  }
  /// Strict numeric lookups: the whole value must parse (and an index
  /// must lie in [lo, hi]), otherwise an InvalidArgument naming the flag
  /// is thrown.
  Index get_index(const std::string& name, Index fallback,
                  Index lo = std::numeric_limits<Index>::min(),
                  Index hi = std::numeric_limits<Index>::max()) const {
    const auto it = kv.find("--" + name);
    return it == kv.end() ? fallback
                          : static_cast<Index>(parse_integer(it->first, it->second, lo, hi));
  }
  double get_double(const std::string& name, double fallback) const {
    const auto it = kv.find("--" + name);
    if (it == kv.end()) return fallback;
    try {
      std::size_t pos = 0;
      const double value = std::stod(it->second, &pos);
      if (pos == it->second.size()) return value;
    } catch (const std::exception&) {  // no number at all: reported below
    }
    throw InvalidArgument(it->first + " expects a number, got \"" + it->second + "\"");
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0 && i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.kv[a] = argv[++i];
    } else {
      // Presence is the value: flag() tests membership and the get_*()
      // accessors fall back only when the key is absent. Assigning a
      // short literal here also trips GCC 12's bogus -Wrestrict at -O3
      // (PR105651), which would break the -Werror CI build.
      args.kv.try_emplace(a);
    }
  }
  return args;
}

Csr<float> build_mask(const Args& args) {
  const Index L = args.get_index("length", 1024);
  const std::string pattern = args.get("pattern", "local");
  if (pattern == "local") {
    return build_csr_local(L, make_local(args.get_index("window", 8)));
  }
  if (pattern == "dilated1d") {
    return build_csr_dilated1d(
        L, make_dilated1d(args.get_index("window", 8), args.get_index("dilation", 1)));
  }
  if (pattern == "dilated2d") {
    return build_csr_dilated2d(
        make_dilated2d(L, args.get_index("block", 8), args.get_index("dilation", 1)));
  }
  if (pattern == "global") {
    std::vector<Index> tokens;
    for (Index t = 0; t < args.get_index("globals", 2); ++t) tokens.push_back(t);
    return build_csr_global(L, make_global(tokens, L));
  }
  if (pattern == "random") {
    return build_csr_random(
        L, RandomParams{args.get_double("sf", 0.01),
                        static_cast<std::uint64_t>(args.get_index("seed", 42))});
  }
  if (pattern == "longformer") {
    return make_longformer(L, args.get_index("reach", 8), args.get_index("globals", 2)).fused;
  }
  if (pattern == "bigbird") {
    return make_bigbird(L, args.get_index("reach", 8), args.get_index("globals", 2),
                        args.get_double("sf", 0.01))
        .fused;
  }
  throw InvalidArgument("unknown --pattern: " + pattern +
                        " (local|dilated1d|dilated2d|global|random|longformer|bigbird)");
}

void print_mask_info(const Csr<float>& mask) {
  const auto stats = degree_stats(csr_degrees(mask));
  std::cout << "shape:       " << mask.rows << " x " << mask.cols << "\n"
            << "nnz:         " << mask.nnz() << "\n"
            << "sparsity Sf: " << sparsity_factor(mask.nnz(), mask.rows) << "\n"
            << "degrees:     min " << stats.min_degree << ", mean " << stats.mean << ", max "
            << stats.max_degree << " (imbalance " << stats.imbalance << ")\n"
            << "storage:     " << mask.storage_bytes() << " bytes (CSR, 32-bit indices)\n";
}

int cmd_mask(const Args& args) {
  const auto mask = build_mask(args);
  print_mask_info(mask);
  const std::string out = args.get("out", "");
  if (!out.empty()) {
    net::save_mask(mask, out);
    std::cout << "written:     " << out << "\n";
  }
  return 0;
}

int cmd_info(const Args& args) {
  const std::string in = args.get("in", "");
  GPA_CHECK(!in.empty(), "info requires --in <path>");
  print_mask_info(net::load_mask(in));
  return 0;
}

template <typename T>
int run_typed(const Args& args, const Csr<float>& mask) {
  const Index L = mask.rows;
  const Index d = args.get_index("dim", 64);
  AttentionOptions opts;
  opts.causal = args.flag("causal");

  Matrix<float> qf(L, d), kf(L, d), vf(L, d);
  Rng rng(static_cast<std::uint64_t>(args.get_index("seed", 1)));
  fill_uniform(qf, rng);
  fill_uniform(kf, rng);
  fill_uniform(vf, rng);

  Matrix<T> q(L, d), k(L, d), v(L, d), out(L, d);
  for (Index i = 0; i < L; ++i) {
    for (Index p = 0; p < d; ++p) {
      q(i, p) = T(qf(i, p));
      k(i, p) = T(kf(i, p));
      v(i, p) = T(vf(i, p));
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  csr_attention(q, k, v, mask, out, opts);
  const auto t1 = std::chrono::steady_clock::now();
  std::cout << "csr kernel:  " << std::chrono::duration<double>(t1 - t0).count() << " s ("
            << mask.nnz() << " edges)\n";

  // Verify against the exact reference (on the causally-intersected
  // mask if requested).
  Matrix<float> out_f(L, d);
  for (Index i = 0; i < L; ++i) {
    for (Index p = 0; p < d; ++p) out_f(i, p) = static_cast<float>(out(i, p));
  }
  Csr<float> check_mask = mask;
  if (opts.causal) {
    // Keep each row's columns j <= i, in one pass over the edges.
    check_mask.col_idx.clear();
    check_mask.values.clear();
    for (Index i = 0; i < L; ++i) {
      for (Index kk = mask.row_begin(i); kk < mask.row_end(i); ++kk) {
        const Index j = mask.col_idx[static_cast<std::size_t>(kk)];
        if (j > i) break;  // columns are sorted
        check_mask.col_idx.push_back(j);
        check_mask.values.push_back(mask.values[static_cast<std::size_t>(kk)]);
      }
      check_mask.row_offsets[static_cast<std::size_t>(i) + 1] =
          static_cast<Index>(check_mask.col_idx.size());
    }
  }
  Matrix<float> expected(L, d);
  baselines::reference_attention(qf, kf, vf, check_mask, expected);
  const bool fp16 = args.flag("fp16");
  const auto rep = allclose(out_f, expected, fp16 ? 5e-3 : 1e-5, fp16 ? 5e-3 : 1e-6);
  std::cout << "verified:    " << (rep.all_close ? "OK" : "FAIL") << " (max diff "
            << rep.max_abs_diff << ")\n";
  return rep.all_close ? 0 : 1;
}

int cmd_run(const Args& args) {
  const auto mask = build_mask(args);
  print_mask_info(mask);
  return args.flag("fp16") ? run_typed<half_t>(args, mask) : run_typed<float>(args, mask);
}

/// `table[value]`, or an InvalidArgument naming --flag and the
/// accepted values: a typo fails loudly instead of falling back.
template <typename T>
const T& lookup(const std::map<std::string, T>& table, const std::string& flag,
                const std::string& value) {
  const auto it = table.find(value);
  if (it != table.end()) return it->second;
  std::string accepted;
  for (const auto& entry : table) accepted += (accepted.empty() ? "" : "|") + entry.first;
  throw InvalidArgument("unknown --" + flag + ": " + value + " (" + accepted + ")");
}

int cmd_memmodel(const Args& args) {
  using namespace gpa::memmodel;
  const std::map<std::string, DeviceSpec> devices = {
      {"a100", DeviceSpec::a100_80gb()},       {"l40", DeviceSpec::l40_48gb()},
      {"v100", DeviceSpec::v100_32gb()},       {"h100", DeviceSpec::h100_80gb()},
      {"rtx4090", DeviceSpec::rtx4090_24gb()}};
  const std::map<std::string, DType> dtypes = {{"fp32", DType::F32}, {"fp16", DType::F16}};
  const std::map<std::string, Algo> algos = {
      {"sdp", Algo::SdpMasked}, {"csr", Algo::Csr},     {"coo", Algo::Coo},
      {"flash", Algo::FlashDense}, {"local", Algo::Local}, {"dilated1d", Algo::Dilated1D},
      {"dilated2d", Algo::Dilated2D}, {"global", Algo::Global}, {"spmm", Algo::SpmmTwoPhase}};

  const DeviceSpec& dev = lookup(devices, "device", args.get("device", "a100"));
  const std::string dtype = args.get("dtype", "fp32");
  ModelConfig cfg;
  cfg.dtype = lookup(dtypes, "dtype", dtype);
  cfg.embed_dim = args.get_index("dim", 64);
  cfg.heads = args.get_index("heads", 1);
  cfg.sparsity = args.get_double("sf", 1e-4);
  const std::string name = args.get("algo", "");
  if (!name.empty()) lookup(algos, "algo", name);  // empty lists every algorithm

  std::cout << dev.name << ", " << dtype << ", dim " << cfg.embed_dim << ", heads "
            << cfg.heads << ", Sf " << cfg.sparsity << "\n";
  for (const auto& [n, a] : algos) {
    if (!name.empty() && n != name) continue;
    std::cout << "  " << n << ": max L = " << max_context_length(a, dev, cfg) << "\n";
  }
  return 0;
}

/// `gpa stats <host:port>` — scrape a live node's registry snapshot over
/// Op::Stats and print the text exposition (or JSON with --json). With
/// --watch <sec> the node is scraped twice, <sec> apart, and counters
/// are printed as per-second rates (gauges as the second sample).
int cmd_stats(const Args& args) {
  std::string host = args.get("host", "127.0.0.1");
  Index port = args.get_index("port", 0, 1, 65535);
  for (const auto& [key, val] : args.kv) {
    (void)val;
    const std::size_t colon = key.find(':');
    if (key.rfind("--", 0) != 0 && colon != std::string::npos) {
      host = key.substr(0, colon);
      port = static_cast<Index>(
          parse_integer("the port of " + key, key.substr(colon + 1), 1, 65535));
      break;
    }
  }
  GPA_CHECK(port > 0, "stats requires <host:port> (or --host/--port)");
  auto scrape = [&] {
    auto t = net::TcpTransport::connect(host, static_cast<std::uint16_t>(port),
                                        net::Millis{5000}, net::Millis{10000});
    GPA_CHECK(t != nullptr, "stats: connect to " + host + ":" + std::to_string(port) + " failed");
    net::RpcClient rpc(*t);
    net::Writer w;
    w.u8(1);
    const auto body = rpc.call(net::Op::Stats, std::move(w.buf));
    net::Reader r(body);
    obs::MetricsSnapshot snap;
    GPA_CHECK(net::get_metrics_snapshot(r, snap) && r.done(), "stats: bad response body");
    return snap;
  };

  const Index watch_s = args.get_index("watch", 0);
  if (watch_s <= 0) {
    const auto snap = scrape();
    std::cout << (args.flag("json") ? snap.to_json() + "\n" : snap.to_text());
    return 0;
  }

  // --watch: two scrapes bracketing a wall-clock interval. Rates use
  // the measured elapsed time, not the requested one, so a slow connect
  // doesn't inflate them.
  const auto first = scrape();
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::seconds(watch_s));
  const auto second = scrape();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::cout << "# rates over " << elapsed << " s (counters: delta/s; gauges: current)\n";
  for (const auto& c : second.counters) {
    double v0 = 0.0;
    for (const auto& p : first.counters) {
      if (p.name == c.name) {
        v0 = static_cast<double>(p.value);
        break;
      }
    }
    std::cout << c.name << " " << (static_cast<double>(c.value) - v0) / elapsed << "/s\n";
  }
  for (const auto& g : second.gauges) std::cout << g.name << " " << g.value << "\n";
  return 0;
}

int cmd_version() {
  // Resolved = the arm Auto dispatches to right now (after GPA_SIMD and
  // the cpuid clamp); compiled = every arm this binary carries.
  std::string compiled;
  for (const SimdLevel l : simd::compiled_levels()) {
    if (!compiled.empty()) compiled += ",";
    compiled += std::string(simd::level_name(l));
  }
  std::cout << "gpa " << kVersion << " (" << kBuildType << ", parallel backend: "
            << parallel_backend() << ", simd: " << simd::simd_backend()
            << ", simd compiled: " << compiled << ")\n";
  return 0;
}

void usage() {
  std::cout << "usage: gpa <mask|info|run|memmodel|stats|version> [--key value ...]\n"
            << "  gpa mask --pattern local --length 1024 --window 8 --out mask.bin\n"
            << "  gpa info --in mask.bin\n"
            << "  gpa run --pattern bigbird --length 2048 --dim 64 [--causal] [--fp16]\n"
            << "  gpa memmodel --dtype fp16 --dim 64 --sf 0.0001 --device a100\n"
            << "  gpa stats 127.0.0.1:9000 [--json]   (scrape a live gpa_serve node)\n"
            << "  gpa stats 127.0.0.1:9000 --watch 5  (two scrapes, counters as per-second rates)\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.command == "mask") return cmd_mask(args);
    if (args.command == "info") return cmd_info(args);
    if (args.command == "run") return cmd_run(args);
    if (args.command == "memmodel") return cmd_memmodel(args);
    if (args.command == "stats") return cmd_stats(args);
    if (args.command == "version" || args.command == "--version") return cmd_version();
    usage();
    return args.command.empty() ? 1 : (std::cerr << "unknown command: " << args.command << "\n", 1);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
