// Serving throughput-vs-latency surface: the dynamic-batching policy is
// measured, not asserted. The workload is the fig3 CSR d=64 cell family
// (random CSR mask at sparsity Sf over L×L, head_dim 64); the load
// generator sweeps the batching policy (max_batch 1 vs 8 vs 16) under
// closed-loop saturation at equal worker count, then probes one
// open-loop cell for latency under a fixed arrival schedule.
//
// What to look for: batched dispatch amortizes the per-dispatch cost
// (queue wakeups, scheduler round-trips between clients and workers —
// the CPU's analogue of kernel-launch overhead) across max_batch
// requests, so requests/sec rises with max_batch, most at the sparse
// end of the grid where the kernel itself is cheapest. The headline
// mechanism, though, is cross-item dispatch parallelism (one "SM" per
// sequence via ServerConfig::batch_policy): a batch fills idle cores a
// single request cannot, which is where the ≥3× batched-vs-unbatched
// gap appears on multi-core hosts. On a single-core host total kernel
// work bounds both arms equally and only the overhead amortization
// remains (measured ~1.05–1.25×) — the printed hardware_concurrency
// tells you which regime a recorded JSON came from.
//
// The second surface is the admission comparison: a mixed-length causal
// pattern workload run open-loop up an arrival-rate ladder, once with
// exact-length batch keys and once with seq_len buckets, until the
// completed/offered ratio drops below the knee threshold. The highest
// rate that held the threshold is the cell family's measured
// max-sustainable-rps; bucketed admission coalesces near-length
// requests that exact keys keep apart, which is worth real occupancy
// (and a later knee) exactly when lengths are diverse.
//
// The third surface is the trace-overhead guard: alternating off/on
// rounds of one closed-loop cell (per-arm medians, since a single
// short cell is jitter-dominated) price the ring when it is RECORDING,
// and a direct span-site microbench prices the runtime-disabled state
// (one relaxed load + branch per site, scaled by the sites/request the
// traced arm actually emitted). The guard is on the disabled number —
// that is what production pays — and wants it under 2% of sustained
// throughput; the recording gap is reported as information.
//
//   bench_serving_throughput [--smoke] [--paper-scale] [--csv f] [--json f]
//
// --json writes the gpa-bench-serving/v4 records (BENCH_serving.json);
// each record carries hw_threads so a committed file self-identifies
// the machine class it was recorded on, and the file embeds the
// process's end-of-run metrics snapshot.

#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "benchutil/json.hpp"
#include "benchutil/runner.hpp"
#include "benchutil/table.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "serve/serve.hpp"

namespace {

using namespace gpa;
using benchutil::Table;

struct Cell {
  serve::LoadGenResult result;
  serve::StatsSnapshot stats;
};

/// Single source of truth for the batching window: greedy for batch-1
/// (a window would only tax the baseline), 50µs otherwise — under
/// saturation the backlog fills batches without waiting anyway.
constexpr std::int64_t batch_wait_us(Index max_batch) { return max_batch > 1 ? 50 : 0; }

Cell run_cell(const serve::Workload& wl, Index max_batch, int workers, Size requests,
              int clients, double arrival_hz, const std::vector<Index>& seq_buckets = {},
              std::chrono::microseconds deadline = std::chrono::microseconds{0},
              std::size_t queue_capacity = 4096) {
  serve::ServerConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = queue_capacity;
  cfg.policy.max_batch = max_batch;
  cfg.policy.max_wait = std::chrono::microseconds{batch_wait_us(max_batch)};
  cfg.policy.seq_buckets = seq_buckets;
  serve::Server server(cfg);

  serve::LoadGenConfig lg;
  lg.requests = requests;
  lg.clients = clients;
  lg.arrival_hz = arrival_hz;
  lg.deadline = deadline;
  Cell cell;
  cell.result = arrival_hz > 0.0 ? serve::run_open_loop(server, wl, lg)
                                 : serve::run_closed_loop(server, wl, lg);
  server.shutdown();
  cell.stats = server.stats();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = benchutil::parse_bench_args(argc, argv, /*warmup=*/1, /*iters=*/1);

  const Index L = args.smoke ? 128 : (args.paper_scale ? 2'048 : 512);
  const Index d = 64;  // fig3's first dk column
  const std::vector<double> sfs =
      args.smoke ? std::vector<double>{0.01} : std::vector<double>{0.0001, 0.001, 0.01};
  const std::vector<Index> batches =
      args.smoke ? std::vector<Index>{1, 8} : std::vector<Index>{1, 8, 16};
  const int workers = 1;  // equal worker count across every policy cell
  const int clients = 32;
  const Size requests = args.smoke ? 256 : 20'000;

  std::cout << "=== Serving throughput vs batching policy (CSR d=" << d << ", L=" << L
            << ", workers=" << workers << ", clients=" << clients << ") ===\n"
            << "host: " << std::thread::hardware_concurrency()
            << " hardware thread(s); batched dispatch parallelises across items, so the\n"
            << "batched-vs-unbatched gap scales with cores (1 core => overhead "
               "amortization only)\n";

  Table table({"mode", "sf", "max_batch", "completed", "rejected", "wall_s", "rps", "p50_ms",
               "p95_ms", "p99_ms", "occupancy"});
  std::vector<benchutil::ServingBenchRecord> records;

  auto record_cell = [&](const char* mode, double sf, Index max_batch, int cell_clients,
                         double arrival_hz, const Cell& cell) {
    const auto& r = cell.result;
    const auto& s = cell.stats;
    table.add_row({mode, Table::fmt_double(sf), std::to_string(max_batch),
                   std::to_string(r.completed), std::to_string(r.rejected),
                   Table::fmt_double(r.wall_s, 3), Table::fmt_double(r.rps, 1),
                   Table::fmt_double(s.latency_ms.p50, 3), Table::fmt_double(s.latency_ms.p95, 3),
                   Table::fmt_double(s.latency_ms.p99, 3),
                   Table::fmt_double(s.mean_batch_occupancy, 2)});
    benchutil::ServingBenchRecord rec;
    rec.mode = mode;
    rec.seq_len = L;
    rec.head_dim = d;
    rec.sparsity = sf;
    rec.workers = workers;
    rec.hw_threads = static_cast<int>(std::thread::hardware_concurrency());
    rec.clients = cell_clients;
    rec.arrival_hz = arrival_hz;
    rec.max_batch = max_batch;
    rec.max_wait_us = batch_wait_us(max_batch);
    rec.completed = r.completed;
    rec.rejected = r.rejected;
    rec.wall_s = r.wall_s;
    rec.rps = r.rps;
    rec.p50_ms = s.latency_ms.p50;
    rec.p95_ms = s.latency_ms.p95;
    rec.p99_ms = s.latency_ms.p99;
    rec.mean_batch_occupancy = s.mean_batch_occupancy;
    records.push_back(std::move(rec));
  };

  for (const double sf : sfs) {
    const auto wl = serve::make_csr_workload(L, d, sf, /*seed=*/7, /*pool=*/8);
    double rps_batch1 = 0.0;
    for (const Index max_batch : batches) {
      // Scale the request count so dense cells stay minutes-free while
      // sparse cells still accumulate stable tails.
      const Size n = sf >= 0.01 && !args.smoke ? requests / 4 : requests;
      const Cell cell = run_cell(wl, max_batch, workers, n, clients, 0.0);
      record_cell("closed-loop", sf, max_batch, clients, 0.0, cell);
      if (max_batch == 1) {
        rps_batch1 = cell.result.rps;
      } else if (rps_batch1 > 0.0) {
        std::cout << "  sf=" << sf << " max_batch=" << max_batch
                  << ": speedup over batch-1 = " << cell.result.rps / rps_batch1 << "x\n";
      }
    }
  }

  // Open-loop probe: offered load ~half of the batch-8 closed-loop
  // capacity at the middle sparsity, with a deadline to exercise
  // shedding under any transient backlog.
  {
    const double sf = args.smoke ? 0.01 : 0.001;
    const auto wl = serve::make_csr_workload(L, d, sf, /*seed=*/7, /*pool=*/8);
    const double rate = args.smoke ? 500.0 : 2'000.0;
    const Size n = args.smoke ? 128 : 4'000;
    const Cell cell = run_cell(wl, 8, workers, n, 0, rate);
    record_cell("open-loop", sf, 8, 0, rate, cell);
  }

  // Bucketed vs exact admission: a mixed-length pattern workload driven
  // open-loop up an arrival ladder until the completed/offered ratio
  // falls below the knee threshold. Equal everything except the
  // seq_buckets knob; the knee each arm resolves is stamped on all of
  // that arm's ladder records. The ladder is JOINT: both arms are
  // probed at each rate back-to-back before the rate advances, so slow
  // drift in background machine load (minutes-scale on a shared host)
  // perturbs both arms the same way instead of biasing whichever arm
  // ran second.
  {
    // 0.95 rather than 0.9: past the knee the completed ratio drops
    // through the 0.90s quickly but noisily (deadline shedding under a
    // growing backlog), and sustainable rungs hold ≥0.97 — so 0.95
    // sits in the gap and 0.90 sits inside the noise band.
    constexpr double kKneeThreshold = 0.95;
    // Length diversity is the point: real mixed traffic has ~every
    // length distinct, so exact keys fragment the queue into as many
    // uncoalescable streams as there are lengths while the buckets
    // fold them into two. The queue is kept shallow relative to the
    // length count so a saturated backlog still holds only a few
    // requests of any one exact length — with a deep queue both arms
    // coalesce equally and the comparison measures nothing.
    std::vector<Index> lengths;
    const Index len_lo = args.smoke ? 20 : 100;
    const Index len_step = 2;
    const int n_lengths = args.smoke ? 16 : 48;
    for (int i = 0; i < n_lengths; ++i) lengths.push_back(len_lo + len_step * i);
    const std::vector<Index> buckets = args.smoke ? std::vector<Index>{35, 50}
                                                  : std::vector<Index>{146, 194};
    const Index pd = 32, window = 8;
    const auto wl = serve::make_mixed_local_workload(lengths, pd, window, /*seed=*/11);
    const double base_rate = args.smoke ? 250.0 : 500.0;
    const double fine_base = args.smoke ? 1'000.0 : 8'000.0;  // the knee band starts above here
    const double rung_seconds = args.smoke ? 0.4 : 2.5;  // short rungs are jitter-dominated near the knee
    const auto deadline = std::chrono::microseconds{100'000};  // sheds under overload
    const int kMaxRungs = args.smoke ? 6 : 10;  // fine 1.15x rungs through the knee band

    std::cout << "\n=== Admission: exact vs bucketed keys (mixed-length local pattern, d="
              << pd << ", open-loop ladder to the " << kKneeThreshold << " knee) ===\n";

    struct Arm {
      const char* name;
      const std::vector<Index>* buckets;
      double knee = 0.0;
      bool alive = true;
      std::vector<std::size_t> rung_records;
    };
    const std::vector<Index> no_buckets;
    std::vector<Arm> arms = {{"exact", &no_buckets, 0.0, true, {}},
                             {"bucketed", &buckets, 0.0, true, {}}};

    auto probe_once = [&](Arm& arm, double rate) {
      const Size n = static_cast<Size>(rate * rung_seconds);
      const Cell cell = run_cell(wl, /*max_batch=*/8, workers, n, /*clients=*/0, rate,
                                 *arm.buckets, deadline, /*queue_capacity=*/160);
      record_cell(arm.name, 0.0, 8, 0, rate, cell);
      records.back().seq_len = lengths.back();  // the family's longest length
      records.back().head_dim = pd;
      records.back().admission = arm.name;
      arm.rung_records.push_back(records.size() - 1);
      return static_cast<double>(cell.result.completed) / static_cast<double>(n) >=
             kKneeThreshold;
    };
    // One 2.5s open-loop rung is jitter-dominated near the knee (a
    // ~250ms scheduler stall sheds ~10% of the rung's offer), so a
    // rate's verdict is a 2-of-3 majority — symmetric, unlike a
    // retry-on-failure rule, which would inflate the knee with lucky
    // passes at oversaturated rates.
    auto probe = [&](Arm& arm, double rate) {
      int pass = 0, fail = 0;
      while (pass < 2 && fail < 2) (probe_once(arm, rate) ? pass : fail) += 1;
      return pass >= 2;
    };

    // Sub-saturation rates pass trivially at ratio ~1.0: sketch that
    // part of the curve with coarse doubling rungs and single probes,
    // then walk fine 1.15x rungs with majority verdicts through the
    // knee band, both arms at each rate before it advances.
    double rate = base_rate;
    for (; rate < fine_base; rate *= 2.0)
      for (Arm& arm : arms)
        if (probe_once(arm, rate)) arm.knee = rate;
    for (int rung = 0; rung < kMaxRungs && (arms[0].alive || arms[1].alive);
         ++rung, rate *= 1.15)
      for (Arm& arm : arms) {
        if (!arm.alive) continue;
        if (probe(arm, rate))
          arm.knee = rate;
        else
          arm.alive = false;
      }
    for (const Arm& arm : arms) {
      for (const std::size_t i : arm.rung_records) records[i].max_sustainable_rps = arm.knee;
      std::cout << "  " << arm.name << ": max sustainable rate = " << arm.knee << " rps\n";
    }
  }

  // Trace-overhead guard: the same closed-loop cell with the span ring
  // off and with it recording. Spans are compiled in either way — the
  // off arm is the runtime-disabled state every other cell (and
  // production) pays, priced at one relaxed load + branch per span
  // site; the on arm adds the clock reads and ring writes. One short
  // cell per arm is jitter-dominated (a scheduler stall moves a 0.5s
  // cell by ~10%), so the arms alternate across rounds and each arm
  // reports its median — drift perturbs both arms, not whichever ran
  // second. Every round is recorded; the printed medians are the guard.
  {
    const double sf = args.smoke ? 0.01 : 0.001;
    const auto wl = serve::make_csr_workload(L, d, sf, /*seed=*/7, /*pool=*/8);
    const Size n = args.smoke ? 256 : 5'000;
    const int rounds = args.smoke ? 2 : 5;
    std::vector<double> rps_off, rps_on;
    double sites_per_req = 0.0;
    for (int round = 0; round < rounds; ++round) {
      for (const bool traced : {false, true}) {
        obs::trace::reset();
        obs::trace::set_enabled(traced);
        const Cell cell = run_cell(wl, /*max_batch=*/8, workers, n, clients, 0.0);
        if (traced)
          sites_per_req =
              static_cast<double>(obs::trace::emitted()) / static_cast<double>(n);
        obs::trace::set_enabled(false);
        record_cell(traced ? "trace-on" : "trace-off", sf, 8, clients, 0.0, cell);
        records.back().trace = traced ? "on" : "off";
        (traced ? rps_on : rps_off).push_back(cell.result.rps);
      }
    }
    obs::trace::reset();
    const double off = benchutil::percentile(rps_off, 50.0);
    const double on = benchutil::percentile(rps_on, 50.0);
    const double enabled_pct = off > 0.0 ? (off - on) / off * 100.0 : 0.0;

    // The <2% claim is about the DISABLED arm, and the off/on gap above
    // cannot measure it (both arms have spans compiled in). Price a
    // disabled span site directly — construct/destroy in a loop with
    // the ring off — then scale by the site count the traced arm
    // actually emitted per request. The empty asm keeps the compiler
    // from hoisting the enabled-flag load out of the loop.
    const int site_iters = args.smoke ? 1'000'000 : 10'000'000;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < site_iters; ++i) {
      obs::trace::Span s("guard.disabled_site", "bench");
      asm volatile("" ::: "memory");
    }
    const double site_ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
            .count() /
        static_cast<double>(site_iters);
    const double disabled_pct =
        off > 0.0 ? site_ns * sites_per_req * 1e-9 * off * 100.0 : 0.0;

    std::cout << "\ntrace overhead (median of " << rounds << " alternating rounds): off="
              << off << " rps, on=" << on << " rps (" << enabled_pct
              << "% with the ring RECORDING — informational)\n"
              << "disabled-span guard: " << site_ns << " ns/site x " << sites_per_req
              << " sites/request = " << disabled_pct
              << "% of sustained throughput (runtime-disabled tracing is the production "
                 "state; guard wants < 2%)\n";
    if (disabled_pct >= 2.0) {
      std::cout << "TRACE GUARD FAILED: disabled-span overhead >= 2%\n";
      return 1;
    }
  }

  std::cout << '\n';
  table.print();
  table.write_csv(args.csv_path);
  if (!args.json_path.empty()) {
    benchutil::write_serving_bench_json(args.json_path, records,
                                        std::string(parallel_backend()),
                                        obs::Registry::global().snapshot().to_json());
    std::cout << "json:   " << args.json_path << "\n";
  }
  return 0;
}
