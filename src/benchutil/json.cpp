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

void write_serving_bench_json(const std::string& path,
                              const std::vector<ServingBenchRecord>& records,
                              const std::string& parallel_backend_name,
                              const std::string& metrics_json) {
  std::ofstream out(path);
  GPA_CHECK(out.good(), "cannot open JSON output file: " + path);
  out << "{\n"
      << "  \"schema\": \"gpa-bench-serving/v4\",\n"
      << "  \"parallel_backend\": \"" << escape(parallel_backend_name) << "\",\n"
      << "  \"metrics\": " << (metrics_json.empty() ? "{}" : metrics_json) << ",\n"
      << "  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    out << "    {\"mode\": \"" << escape(r.mode) << "\", \"L\": " << r.seq_len
        << ", \"d\": " << r.head_dim << ", \"sf\": " << fmt(r.sparsity)
        << ", \"workers\": " << r.workers << ", \"hw_threads\": " << r.hw_threads
        << ", \"clients\": " << r.clients
        << ", \"arrival_hz\": " << fmt(r.arrival_hz) << ", \"max_batch\": " << r.max_batch
        << ", \"max_wait_us\": " << r.max_wait_us << ", \"completed\": " << r.completed
        << ", \"rejected\": " << r.rejected << ", \"wall_s\": " << fmt(r.wall_s)
        << ", \"rps\": " << fmt(r.rps) << ", \"p50_ms\": " << fmt(r.p50_ms)
        << ", \"p95_ms\": " << fmt(r.p95_ms) << ", \"p99_ms\": " << fmt(r.p99_ms)
        << ", \"mean_batch_occupancy\": " << fmt(r.mean_batch_occupancy)
        << ", \"admission\": \"" << escape(r.admission) << "\""
        << ", \"max_sustainable_rps\": " << fmt(r.max_sustainable_rps)
        << ", \"trace\": \"" << escape(r.trace) << "\"}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  GPA_CHECK(out.good(), "failed writing JSON output file: " + path);
}

void write_schedule_bench_json(const std::string& path,
                               const std::vector<ScheduleBenchRecord>& records) {
  std::ofstream out(path);
  GPA_CHECK(out.good(), "cannot open JSON output file: " + path);
  out << "{\n"
      << "  \"schema\": \"gpa-bench-schedule/v2\",\n"
      << "  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    out << "    {\"backend\": \"" << escape(r.backend) << "\", \"kernel\": \""
        << escape(r.kernel) << "\", \"schedule\": \"" << escape(r.schedule)
        << "\", \"grain\": " << r.grain << ", \"L\": " << r.seq_len
        << ", \"hw_threads\": " << r.hw_threads << ", \"mean_s\": " << fmt(r.mean_s)
        << ", \"stddev_s\": " << fmt(r.stddev_s) << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  GPA_CHECK(out.good(), "failed writing JSON output file: " + path);
}

void write_decode_bench_json(const std::string& path,
                             const std::vector<DecodeBenchRecord>& records,
                             const std::string& host, const std::string& parallel_backend_name,
                             const std::string& simd_name,
                             const std::string& metrics_json,
                             const std::string& capacity_json) {
  std::ofstream out(path);
  GPA_CHECK(out.good(), "cannot open JSON output file: " + path);
  out << "{\n"
      << "  \"schema\": \"gpa-bench-decode/v3\",\n"
      << "  \"host\": \"" << escape(host) << "\",\n"
      << "  \"parallel_backend\": \"" << escape(parallel_backend_name) << "\",\n"
      << "  \"simd\": \"" << escape(simd_name) << "\",\n"
      << "  \"metrics\": " << (metrics_json.empty() ? "{}" : metrics_json) << ",\n"
      << "  \"capacity\": " << (capacity_json.empty() ? "{}" : capacity_json) << ",\n"
      << "  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    out << "    {\"pattern\": \"" << escape(r.pattern) << "\", \"L\": " << r.seq_len
        << ", \"d\": " << r.head_dim << ", \"row_nnz\": " << r.row_nnz
        << ", \"causal_nnz\": " << r.causal_nnz
        << ", \"page_dtype\": \"" << escape(r.page_dtype) << "\""
        << ", \"cached_us_per_token\": " << fmt(r.cached_us_per_token)
        << ", \"recompute_us_per_token\": " << fmt(r.recompute_us_per_token)
        << ", \"speedup\": " << fmt(r.speedup) << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  GPA_CHECK(out.good(), "failed writing JSON output file: " + path);
}

}  // namespace gpa::benchutil
