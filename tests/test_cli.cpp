// Smoke tests for tools/gpa_cli.cpp: run the binary with tiny mask
// presets and assert exit code 0 plus non-empty, well-formed output.
//
// The binary path is injected by CMake as GPA_CLI_PATH; the test is only
// registered when GPA_BUILD_TOOLS is ON.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;
};

CliResult run_cli(const std::string& args) {
  const std::string cmd = "\"" + std::string(GPA_CLI_PATH) + "\" " + args + " 2>&1";
  CliResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> buf{};
  while (fgets(buf.data(), static_cast<int>(buf.size()), pipe) != nullptr) {
    result.output += buf.data();
  }
  const int status = pclose(pipe);
  result.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  return result;
}

TEST(CliSmoke, MaskLocalTiny) {
  const auto r = run_cli("mask --pattern local --length 64 --window 4");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_FALSE(r.output.empty());
  EXPECT_NE(r.output.find("nnz:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("sparsity"), std::string::npos) << r.output;
}

TEST(CliSmoke, RunBigbirdTinyVerifiesAgainstReference) {
  const auto r = run_cli("run --pattern bigbird --length 96 --dim 16 --reach 4");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("verified:    OK"), std::string::npos) << r.output;
}

TEST(CliSmoke, RunLongformerCausalVerifiesAgainstReference) {
  const auto r = run_cli("run --pattern longformer --length 96 --dim 16 --causal");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("verified:    OK"), std::string::npos) << r.output;
}

TEST(CliSmoke, MemmodelListsAlgorithms) {
  const auto r = run_cli("memmodel --dtype fp16 --dim 64 --sf 0.0001");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("csr"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("max L"), std::string::npos) << r.output;
}

TEST(CliSmoke, VersionReportsBuildIdentity) {
  const auto r = run_cli("version");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("gpa "), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("parallel backend:"), std::string::npos) << r.output;
}

TEST(CliSmoke, UnknownCommandFailsWithUsage) {
  const auto r = run_cli("definitely-not-a-command");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
}

TEST(CliSmoke, MalformedIntegerNamesTheFlag) {
  const auto r = run_cli("mask --pattern local --length banana");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("--length expects an integer"), std::string::npos) << r.output;
}

TEST(CliSmoke, TrailingJunkAfterIntegerIsRejected) {
  const auto r = run_cli("mask --pattern local --length 1e4");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("--length expects an integer"), std::string::npos) << r.output;
}

TEST(CliSmoke, DanglingValueFlagNamesTheFlag) {
  const auto r = run_cli("mask --pattern local --length 64 --window");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("--window expects an integer"), std::string::npos) << r.output;
}

TEST(CliSmoke, MemmodelKnowsExtendedDeviceTable) {
  const auto h100 = run_cli("memmodel --device h100 --algo csr --dim 64 --sf 0.0001");
  EXPECT_EQ(h100.exit_code, 0) << h100.output;
  EXPECT_NE(h100.output.find("H100"), std::string::npos) << h100.output;
  const auto rtx = run_cli("memmodel --device rtx4090 --algo csr --dim 64 --sf 0.0001");
  EXPECT_EQ(rtx.exit_code, 0) << rtx.output;
  EXPECT_NE(rtx.output.find("RTX 4090"), std::string::npos) << rtx.output;
}

TEST(CliSmoke, MemmodelRejectsUnknownDevice) {
  // A typoed device must fail loudly, not silently price an A100; a
  // typoed dtype must not price fp32 under its own name, and a typoed
  // algo must not print an empty table.
  const auto r = run_cli("memmodel --device 4090 --algo csr --dim 64 --sf 0.0001");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unknown --device"), std::string::npos) << r.output;
  const auto dtype = run_cli("memmodel --dtype bf16 --algo csr --dim 64 --sf 0.0001");
  EXPECT_EQ(dtype.exit_code, 1);
  EXPECT_NE(dtype.output.find("unknown --dtype: bf16 (fp16|fp32)"), std::string::npos)
      << dtype.output;
  const auto algo = run_cli("memmodel --algo cssr --dim 64 --sf 0.0001");
  EXPECT_EQ(algo.exit_code, 1);
  EXPECT_NE(algo.output.find("unknown --algo: cssr ("), std::string::npos) << algo.output;
  EXPECT_NE(algo.output.find("|csr|"), std::string::npos) << algo.output;
}

TEST(CliSmoke, MaskFileRoundTripsThroughInfo) {
  const std::string path = testing::TempDir() + "gpa_cli_mask.bin";
  const auto w = run_cli("mask --pattern local --length 64 --window 4 --out " + path);
  EXPECT_EQ(w.exit_code, 0) << w.output;
  const auto r = run_cli("info --in " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("shape:       64 x 64"), std::string::npos) << r.output;
  std::remove(path.c_str());
}

TEST(CliSmoke, UnknownPatternFailsCleanly) {
  const auto r = run_cli("mask --pattern nope --length 64");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error:"), std::string::npos) << r.output;
}

}  // namespace
