// Chaos-soak harness: runs PANDAS under a battery of link-chaos mixes and
// asserts the robustness invariants that must hold under ANY adversary
// (docs/FAULTS.md "Network chaos"):
//
//   1. zero corrupt cells accepted (hardened nodes reject every bad tag),
//   2. deadline-attribution categories sum exactly to the elapsed time on
//      every record (integer arithmetic, no drift),
//   3. serial vs sharded execution (--sim-threads 1 vs N) exports
//      byte-identical records and attribution streams,
//   4. the scheduler reaches allocation steady state: no new event-pool
//      allocations between the two final slots.
//
// Each mix is a (faults, hedging) combination; the built-in battery covers
// partitions, Gilbert–Elliott loss bursts, link flapping, bandwidth collapse,
// churn, and a combined storm. Passing any fault/chaos flag
// (harness/fault_cli.h) replaces the battery with that single custom mix.
// scripts/soak.py sweeps seeds through this binary.
//
// Exit status is non-zero if any invariant fails.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/fault_cli.h"
#include "harness/report.h"
#include "harness/run_cli.h"

namespace {

using pandas::harness::PandasConfig;
using pandas::harness::PandasExperiment;
using pandas::harness::PandasResults;

struct Mix {
  const char* name;
  bool hedged;
  void (*apply)(pandas::fault::FaultConfig&);
};

const Mix kMixes[] = {
    {"clean", false, [](pandas::fault::FaultConfig&) {}},
    {"partition", true,
     [](pandas::fault::FaultConfig& f) {
       f.partition_fraction = 0.05;
       f.partition_heal = 1 * pandas::sim::kSecond;
     }},
    {"bursts", true,
     [](pandas::fault::FaultConfig& f) {
       f.burst_fraction = 0.2;
       f.ge_loss_bad = 0.5;
     }},
    {"flap-bw", true,
     [](pandas::fault::FaultConfig& f) {
       f.flap_fraction = 0.1;
       f.bw_collapse_fraction = 0.1;
     }},
    {"storm", true,
     [](pandas::fault::FaultConfig& f) {
       f.partition_fraction = 0.05;
       f.partition_heal = 1 * pandas::sim::kSecond;
       f.burst_fraction = 0.1;
       f.churn_fraction = 0.1;
       f.byzantine_fraction = 0.1;
     }},
};

/// One full run: per-slot invariant samples plus the in-memory exports used
/// for the serial-vs-sharded byte-identity check.
struct RunOutput {
  PandasResults res;
  std::string records;
  std::string attribution;
  std::vector<std::uint64_t> allocs;  // scheduler allocs after each slot
  std::uint64_t attr_records = 0;
  std::uint64_t attr_sum_violations = 0;
};

std::string capture(void (PandasExperiment::*writer)(std::FILE*) const,
                    const PandasExperiment& exp) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  if (mem == nullptr) return {};
  (exp.*writer)(mem);
  std::fclose(mem);
  std::string out(buf, len);
  std::free(buf);
  return out;
}

RunOutput run_once(const PandasConfig& cfg) {
  PandasExperiment exp(cfg);
  RunOutput out;
  for (std::uint32_t s = 0; s < cfg.slots; ++s) {
    exp.run_slot(s, out.res);
    out.allocs.push_back(exp.parallel_engine().scheduler_allocs());
  }
  for (const auto& a : exp.attributions()) {
    out.attr_records += 1;
    pandas::sim::Time sum = 0;
    for (const auto t : a.by_category) sum += t;
    if (sum != a.elapsed) out.attr_sum_violations += 1;
  }
  out.records = capture(&PandasExperiment::write_records_jsonl, exp);
  out.attribution = capture(&PandasExperiment::write_attribution_jsonl, exp);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pandas;
  harness::Flags flags;
  harness::RunCli run(flags, {.nodes = 200, .slots = 3, .quick = true,
                              .quick_nodes = 150, .quick_slots = 2});
  harness::FaultCli fault_cli(flags);
  std::uint32_t threads = 4;
  std::string only;
  bool list = false;
  flags.add("--threads", threads, "engine shards of the sharded run",
            std::uint32_t{1}, harness::kMaxSimThreads);
  std::vector<std::string> mix_names = {"custom"};
  for (const auto& m : kMixes) mix_names.emplace_back(m.name);
  flags.choice("--mix", only, mix_names,
               "run only this mix (custom: the fault flags given)");
  flags.flag("--list", list, "print the built-in mix names and exit");
  flags.parse(argc, argv);

  if (list) {
    for (const auto& m : kMixes) std::printf("%s\n", m.name);
    return 0;
  }

  harness::print_header("Chaos soak — seed " + std::to_string(run.seed) +
                        ", " + std::to_string(run.nodes) + " nodes, " +
                        std::to_string(run.slots) + " slots");

  int failures = 0;
  const auto fail = [&failures](const std::string& mix, const char* what) {
    std::printf("  INVARIANT FAIL [%s]: %s\n", mix.c_str(), what);
    ++failures;
  };

  // A custom mix from the CLI replaces the built-in battery.
  std::vector<Mix> mixes(std::begin(kMixes), std::end(kMixes));
  if (fault_cli.any()) {
    mixes = {{"custom", fault_cli.hedging, nullptr}};
  }

  for (const auto& mix : mixes) {
    if (!only.empty() && only != mix.name) continue;
    PandasConfig cfg = run.config();
    cfg.policy = core::SeedingPolicy::redundant(8);
    cfg.block_gossip = false;
    cfg.obs.collect_records = true;
    cfg.obs.causal = true;
    if (mix.apply != nullptr) {
      mix.apply(cfg.faults);
      cfg.params.hedging = mix.hedged;
    } else {
      fault_cli.apply(cfg);
    }

    cfg.net.sim_threads = 1;
    const auto serial = run_once(cfg);
    cfg.net.sim_threads = threads;
    const auto sharded = run_once(cfg);

    // 1. Hardened nodes accept zero corrupt cells, no matter the chaos.
    if (serial.res.cells_corrupt_accepted != 0) {
      fail(mix.name, "corrupt cells accepted by a hardened node");
    }
    // 2. Attribution categories sum exactly to elapsed on every record.
    if (serial.attr_sum_violations != 0) {
      fail(mix.name, "attribution categories do not sum to elapsed");
    }
    // 3. Serial vs sharded byte-identity of every export stream.
    if (serial.records != sharded.records) {
      fail(mix.name, "records JSONL differs between threads 1 and N");
    }
    if (serial.attribution != sharded.attribution) {
      fail(mix.name, "attribution JSONL differs between threads 1 and N");
    }
    // 4. Allocation steady state: the event pool stops growing by the
    //    final slot (warm-up may allocate; steady state must not).
    if (serial.allocs.size() >= 2 &&
        serial.allocs.back() != serial.allocs[serial.allocs.size() - 2]) {
      fail(mix.name, "scheduler still allocating in the final slot");
    }

    std::printf(
        "  %-10s records=%llu attr=%llu samp_p99=%.0fms misses=%llu "
        "hedges=%llu wins=%llu heals=%llu %s\n",
        mix.name, static_cast<unsigned long long>(serial.res.records),
        static_cast<unsigned long long>(serial.attr_records),
        serial.res.sampling_ms.count() > 0
            ? serial.res.sampling_ms.percentile(0.99)
            : -1.0,
        static_cast<unsigned long long>(serial.res.sampling_misses),
        static_cast<unsigned long long>(serial.res.hedges_sent),
        static_cast<unsigned long long>(serial.res.hedge_wins),
        static_cast<unsigned long long>(serial.res.partition_heals),
        failures == 0 ? "OK" : "");
    std::fflush(stdout);
  }

  if (failures > 0) {
    std::printf("soak FAILED: %d invariant violation(s)\n", failures);
    return 1;
  }
  std::printf("soak OK\n");
  return 0;
}
