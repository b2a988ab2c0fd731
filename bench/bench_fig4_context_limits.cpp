// Regenerates Figure 4 (theoretical max context length vs sparsity
// factor, FP32/FP16, dk ∈ {64, 128}) and Table II (max L at Sf = 1e-4,
// including the Llama-3 32-head geometry), plus the §II-D LongNet
// sparsity table. Purely analytic — runs in milliseconds and matches the
// paper's A100-80GB numbers (test_memmodel pins the Table II cells
// against the paper's).
//
// Flags: --csv <path>, --table2 (only the table), --sparsity-table; any
// other flag exits 1. It has no timing protocol, so it takes no --smoke:
// its full run is the smoke run.

#include <cstring>
#include <iostream>
#include <string>

#include "benchutil/table.hpp"
#include "common/error.hpp"
#include "memmodel/memory_model.hpp"

namespace {

using namespace gpa;
using namespace gpa::memmodel;
using benchutil::Table;

std::string fmt_L(Index v) { return v < 0 ? "Unsupported" : std::to_string(v); }

void print_fig4(const DeviceSpec& dev, DType dt, Index dk, const std::string& csv) {
  std::cout << "\n=== Figure 4: max context length vs Sf — " << dtype_name(dt)
            << ", dk = " << dk << ", " << dev.name << " ===\n";
  Table table({"sf", "sdp_masked", "csr", "coo", "flash_dense", "local_1d_2d", "global"});
  for (const double sf : {1.0, 0.5, 0.1, 0.05, 0.01, 0.005, 0.001, 0.0005, 0.0001}) {
    ModelConfig cfg{dt, dk, 1, sf};
    const Index flash = dt == DType::F16 ? max_context_length(Algo::FlashDense, dev, cfg) : -1;
    table.add_row({Table::fmt_double(sf),
                   fmt_L(max_context_length(Algo::SdpMasked, dev, cfg)),
                   fmt_L(max_context_length(Algo::Csr, dev, cfg)),
                   fmt_L(max_context_length(Algo::Coo, dev, cfg)), fmt_L(flash),
                   fmt_L(max_context_length(Algo::Local, dev, cfg)),
                   fmt_L(max_context_length(Algo::Global, dev, cfg))});
  }
  table.print();
  table.write_csv(csv);
}

void print_table2(const DeviceSpec& dev, const std::string& csv) {
  std::cout << "\n=== Table II: theoretical max context lengths, Sf = 1e-4, " << dev.name
            << " ===\n";
  Table table({"dtype", "sf", "dk", "heads", "max_sdp", "max_csr", "max_coo", "max_flash",
               "max_local", "max_global", "max_dilated1d", "max_dilated2d"});
  struct RowCfg {
    DType dt;
    Index dim;
    Index heads;
  };
  const RowCfg rows[] = {{DType::F32, 64, 1},   {DType::F32, 128, 1}, {DType::F32, 4096, 32},
                         {DType::F16, 64, 1},   {DType::F16, 128, 1}, {DType::F16, 4096, 32}};
  for (const auto& rc : rows) {
    const Table2Row r = table2_row(dev, ModelConfig{rc.dt, rc.dim, rc.heads, 1e-4});
    table.add_row({std::string(dtype_name(rc.dt)), "0.0001", std::to_string(rc.dim),
                   std::to_string(rc.heads), fmt_L(r.sdp), fmt_L(r.csr), fmt_L(r.coo),
                   fmt_L(r.flash), fmt_L(r.local), fmt_L(r.global), fmt_L(r.dilated1d),
                   fmt_L(r.dilated2d)});
  }
  table.print();
  table.write_csv(csv);
}

void print_sparsity_table(const std::string& csv) {
  std::cout << "\n=== Section II-D: LongNet rule Sf = 2730/L ===\n";
  Table table({"L", "sf"});
  for (const auto& e : longnet_sparsity_table()) {
    table.add_row({std::to_string(e.seq_len), Table::fmt_double(e.sf, 3)});
  }
  table.print();
  table.write_csv(csv);
}

}  // namespace

int main(int argc, char** argv) try {
  bool only_table2 = false;
  bool only_sparsity = false;
  std::string csv;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--table2") {
      only_table2 = true;
    } else if (a == "--sparsity-table") {
      only_sparsity = true;
    } else if (a == "--csv" && i + 1 < argc) {
      csv = argv[++i];
    } else {
      throw gpa::InvalidArgument(a == "--csv" ? "--csv requires a value" : "unknown flag " + a);
    }
  }

  const auto dev = gpa::DeviceSpec::a100_80gb();
  if (only_sparsity) {
    print_sparsity_table(csv);
    return 0;
  }
  if (only_table2) {
    print_table2(dev, csv);
    return 0;
  }
  for (const auto dt : {gpa::DType::F32, gpa::DType::F16}) {
    for (const gpa::Index dk : {64, 128}) print_fig4(dev, dt, dk, csv);
  }
  print_table2(dev, csv);
  print_sparsity_table(csv);
  return 0;
} catch (const std::exception& e) {
  std::cerr << argv[0] << ": " << e.what() << "\n";
  return 1;
}
