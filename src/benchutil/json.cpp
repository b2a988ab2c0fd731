#include "benchutil/json.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"

namespace gpa::benchutil {

namespace {

/// Minimal JSON string escape (the strings here are kernel/backend
/// identifiers, but be correct anyway).
std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::ostringstream esc;
          esc << "\\u" << std::hex << std::setw(4) << std::setfill('0') << static_cast<int>(c);
          out += esc.str();
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(9) << v;
  return os.str();
}

}  // namespace

void write_kernel_bench_json(const std::string& path,
                             const std::vector<KernelBenchRecord>& records,
                             const std::string& parallel_backend_name, int hw_threads) {
  std::ofstream out(path);
  GPA_CHECK(out.good(), "cannot open JSON output file: " + path);
  out << "{\n"
      << "  \"schema\": \"gpa-bench-kernels/v3\",\n"
      << "  \"parallel_backend\": \"" << escape(parallel_backend_name) << "\",\n"
      << "  \"hw_threads\": " << hw_threads << ",\n"
      << "  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    out << "    {\"kernel\": \"" << escape(r.kernel) << "\", \"simd\": \"" << escape(r.simd)
        << "\", \"simd_requested\": \"" << escape(r.simd_requested)
        << "\", \"L\": " << r.seq_len << ", \"d\": " << r.head_dim
        << ", \"median_s\": " << fmt(r.median_s) << ", \"gbytes_per_s\": "
        << fmt(r.gbytes_per_s) << ", \"gflops_per_s\": " << fmt(r.gflops_per_s) << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  GPA_CHECK(out.good(), "failed writing JSON output file: " + path);
}

}  // namespace gpa::benchutil
