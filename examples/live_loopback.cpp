// Live-backend soak + sim parity check.
//
// Runs one full PANDAS slot (builder seeding -> consolidation -> sampling)
// over real AF_INET loopback sockets via harness::run_live_slot, then — with
// --parity — replays the identical slot (same directory, assignment table,
// view, and seeding-plan RNG) through the lossless SimTransport twin and
// checks the live backend against it: seed-cell delivery within
// `kDeliveryTol`, sampling success within `kSuccessTol`, and zero silent
// drops (send/EMSGSIZE/decode failures). Tolerances are documented in
// docs/UDP.md ("Sim-vs-live parity").
//
// Exit status: 0 when the live slot fully samples (and, with --parity, the
// ParityReport passes); 1 otherwise — so CI can gate on it directly.

#include <cstdio>

#include "harness/live_run.h"
#include "harness/report.h"
#include "harness/run_cli.h"
#include "obs/json.h"

namespace {

using pandas::harness::ParityReport;
using pandas::harness::SlotOutcome;

void print_outcome(const SlotOutcome& out) {
  std::printf("  [%s] consolidated %u/%u, sampled %u/%u (%.1f%%)\n",
              out.backend.c_str(), out.consolidated, out.nodes, out.sampled,
              out.nodes, 100.0 * out.sampling_success());
  std::printf("  [%s] seed cells sent %llu, received %llu (delivery %.4f), "
              "response cells received %llu\n",
              out.backend.c_str(),
              static_cast<unsigned long long>(out.seed_cells_sent),
              static_cast<unsigned long long>(out.seed_cells_received),
              out.seed_delivery_ratio(),
              static_cast<unsigned long long>(out.response_cells_received));
}

void write_outcome_json(pandas::obs::JsonWriter& w, const SlotOutcome& out) {
  w.begin_object();
  w.kv("backend", std::string_view(out.backend));
  w.kv("nodes", out.nodes);
  w.kv("consolidated", out.consolidated);
  w.kv("sampled", out.sampled);
  w.kv("sampling_success", out.sampling_success());
  w.kv("seed_cells_sent", out.seed_cells_sent);
  w.kv("seed_cells_received", out.seed_cells_received);
  w.kv("seed_delivery_ratio", out.seed_delivery_ratio());
  w.kv("response_cells_received", out.response_cells_received);
  w.kv("send_failures", out.send_failures);
  w.kv("emsgsize_failures", out.emsgsize_failures);
  w.kv("decode_failures", out.decode_failures);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pandas;
  auto cfg = harness::LiveRunConfig::loopback_defaults();
  cfg.run_for = 3000 * sim::kMillisecond;
  harness::Flags flags;
  harness::RunCli run(flags, {.nodes = 200, .slots = 0});
  bool parity = false;
  bool json = false;
  flags.millis("--run-ms", cfg.run_for, "wall-clock budget of the live slot");
  flags.flag("--parity", parity,
             "replay the slot on the lossless simulator and compare");
  flags.flag("--json", json, "print the outcome as JSON");
  flags.parse(argc, argv);
  cfg.nodes = run.nodes;
  cfg.seed = run.seed;

  if (!json) {
    harness::print_header(parity ? "live_loopback: UDP soak + sim parity"
                                 : "live_loopback: UDP soak");
    std::printf("  %u nodes, seed %llu, %lld ms wall budget, blob %ux%u\n",
                cfg.nodes, static_cast<unsigned long long>(cfg.seed),
                static_cast<long long>(cfg.run_for / sim::kMillisecond),
                cfg.params.matrix_n, cfg.params.matrix_n);
  }

  bool ok = true;
  if (parity) {
    const ParityReport report = harness::run_parity(cfg);
    ok = report.ok();
    if (json) {
      obs::JsonWriter w(stdout);
      w.begin_object();
      w.key("live");
      write_outcome_json(w, report.live);
      w.key("sim");
      write_outcome_json(w, report.sim);
      w.kv("delivery_tol", ParityReport::kDeliveryTol);
      w.kv("success_tol", ParityReport::kSuccessTol);
      w.kv("delivery_ok", report.delivery_ok());
      w.kv("success_ok", report.success_ok());
      w.kv("no_silent_drops", report.no_silent_drops());
      w.kv("ok", ok);
      w.end_object();
      w.newline();
    } else {
      print_outcome(report.sim);
      print_outcome(report.live);
      harness::print_transport(report.live.transport);
      std::printf("  parity: delivery %s (%.4f vs %.4f x %.2f), success %s "
                  "(%.3f vs %.3f - %.2f), silent drops %s\n",
                  report.delivery_ok() ? "OK" : "FAIL",
                  report.live.seed_delivery_ratio(),
                  report.sim.seed_delivery_ratio(), ParityReport::kDeliveryTol,
                  report.success_ok() ? "OK" : "FAIL",
                  report.live.sampling_success(),
                  report.sim.sampling_success(), ParityReport::kSuccessTol,
                  report.no_silent_drops() ? "none" : "DETECTED");
      std::printf("  verdict: %s\n", ok ? "PARITY OK" : "PARITY FAIL");
    }
  } else {
    const SlotOutcome out = harness::run_live_slot(cfg);
    ok = out.sampled == out.nodes && out.send_failures == 0 &&
         out.emsgsize_failures == 0 && out.decode_failures == 0;
    if (json) {
      obs::JsonWriter w(stdout);
      write_outcome_json(w, out);
      w.newline();
    } else {
      print_outcome(out);
      harness::print_transport(out.transport);
      std::printf("  verdict: %s\n", ok ? "OK" : "FAIL");
    }
  }
  return ok ? 0 : 1;
}
