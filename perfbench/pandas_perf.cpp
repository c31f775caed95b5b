// pandas_perf: closed-loop host-cost benchmark program behind perfbench/run.py.
//
// A pass simulates --networks independent networks, whose seeds derive from
// --seed (network 0 uses --seed itself). Each network is one episode: a fresh
// harness::PandasExperiment is constructed (timed as set-up), then --slots
// 12 s slots run back to back through the public run_slot() API. Passes
// repeat until --seconds of wall time have passed (at least one). The program
// prints one JSON object on stdout holding the raw per-episode timings, a
// digest of every episode's simulated outputs, the simulated outcome pooled
// over the first pass, and (with --trace 1) per-layer counters.
//
// With --trace 1 every network runs twice per pass, untraced and traced (odd
// networks traced first). A traced episode re-installs every node's transport
// handler with one that times node(i).handle_message() per message type, into
// per-shard accumulators (the handler of node i always runs on its home
// shard's thread). With block gossip off this wrapper calls exactly what the
// harness handler calls, so a traced episode must reproduce the untraced
// digest bit for bit.
//
//   pandas_perf --policy redundant|single --nodes N [--sim-threads T]
//               [--networks E] [--slots D] [--seed S] [--seconds R]
//               [--trace 0|1]

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "harness/experiment.h"

namespace {

using namespace pandas;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string policy = "redundant";
  std::uint32_t nodes = 0;
  std::uint32_t sim_threads = 1;
  std::uint32_t networks = 1;
  std::uint32_t slots = 1;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
};

constexpr const char* kUsage =
    "usage: pandas_perf --policy redundant|single --nodes N [--sim-threads T]\n"
    "                   [--networks E] [--slots D] [--seed S] [--seconds R]\n"
    "                   [--trace 0|1]\n";

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr, "pandas_perf: %s\n%s", what.c_str(), kUsage);
  std::exit(2);
}

template <typename T>
T parse_number(std::string_view flag, std::string_view text, T lo, T hi) {
  T value{};
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value < lo || value > hi) {
    usage_error("bad value for " + std::string(flag) + ": '" +
                std::string(text) + "'");
  }
  return value;
}

// Strict parser: every flag takes exactly one value; unknown flags, missing
// values and malformed or out-of-range numbers are errors, never defaults.
Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    }
    if (i + 1 >= argc) usage_error("missing value for " + std::string(flag));
    const std::string_view v = argv[++i];
    if (flag == "--policy") {
      if (v != "redundant" && v != "single") {
        usage_error("unknown policy '" + std::string(v) + "'");
      }
      o.policy = v;
    } else if (flag == "--nodes") {
      o.nodes = parse_number<std::uint32_t>(flag, v, 2, 100000);
    } else if (flag == "--sim-threads") {
      o.sim_threads = parse_number<std::uint32_t>(flag, v, 1, 64);
    } else if (flag == "--networks") {
      o.networks = parse_number<std::uint32_t>(flag, v, 1, 1000);
    } else if (flag == "--slots") {
      o.slots = parse_number<std::uint32_t>(flag, v, 1, 1000);
    } else if (flag == "--seed") {
      o.seed = parse_number<std::uint64_t>(flag, v, 0, UINT64_MAX);
    } else if (flag == "--seconds") {
      o.seconds = parse_number<double>(flag, v, 0.0, 3600.0);
    } else if (flag == "--trace") {
      o.trace = parse_number<int>(flag, v, 0, 1) == 1;
    } else {
      usage_error("unknown flag " + std::string(flag));
    }
  }
  if (o.nodes == 0) usage_error("--nodes is required");
  return o;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double current_rss_mb() {
  long pages_total = 0, pages_resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  if (std::fscanf(f, "%ld %ld", &pages_total, &pages_resident) != 2) {
    pages_resident = 0;
  }
  std::fclose(f);
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// FNV-1a over 64-bit words: a stable digest of the simulated outputs.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
};

// Handler time per message type, one cache line per shard.
enum Kind : std::size_t { kSeed = 0, kQuery, kReply, kOther, kKinds };
struct alignas(64) ShardSpans {
  std::array<std::uint64_t, kKinds> ns{};
  std::array<std::uint64_t, kKinds> calls{};
};

Kind kind_of(const net::Message& msg) {
  if (std::holds_alternative<net::SeedMsg>(msg)) return kSeed;
  if (std::holds_alternative<net::CellQueryMsg>(msg)) return kQuery;
  if (std::holds_alternative<net::CellReplyMsg>(msg)) return kReply;
  return kOther;
}

// Same dispatch as the harness handler with block gossip off, timed.
void wrap_handlers(harness::PandasExperiment& exp, std::uint32_t n,
                   std::vector<ShardSpans>& spans) {
  auto& engine = exp.parallel_engine();
  for (std::uint32_t i = 0; i < n; ++i) {
    ShardSpans* acc = &spans[engine.shard_of(i)];
    core::PandasNode* node = &exp.node(i);
    exp.transport().set_handler(
        i, [node, acc](net::NodeIndex from, net::Message&& msg) {
          const Kind k = kind_of(msg);
          const auto t0 = Clock::now();
          node->handle_message(from, msg);
          acc->ns[k] += static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - t0)
                  .count());
          acc->calls[k] += 1;
        });
  }
}

// Per-layer totals summed over the traced episodes of a run.
struct Layers {
  std::uint32_t slots = 0;
  double wall_s = 0;
  std::array<double, kKinds> handler_s{};
  std::array<std::uint64_t, kKinds> calls{};
  std::uint64_t fetch_rounds = 0, fetch_queries = 0, fetch_cells_requested = 0,
                fetch_duplicates = 0, fetch_new_cells = 0,
                fetch_peer_timeouts = 0;
  std::uint64_t events = 0, scheduler_allocs = 0, peak_queue_depth = 0,
                windows = 0, lane_events = 0;
  double engine_wall_s = 0;
  std::uint64_t seed_bytes = 0, query_msgs = 0, response_msgs = 0,
                response_bytes = 0, response_cells_received = 0, msgs_lost = 0;
};

struct Episode {
  std::uint32_t network = 0;
  bool traced = false;
  double setup_s = 0;
  double rss_after_setup_mb = 0;
  std::vector<double> slot_wall_s, slot_cpu_s;
  std::string digest;
  // Simulated outcome; sampling_ms has one entry per correct node-slot.
  std::uint64_t ops = 0, late = 0, corrupt_accepted = 0;
  std::uint64_t correct_nodes = 0;
  std::vector<double> sampling_ms;
  double fetch_mb_sum = 0;
};

// Seed of the pass's `network`-th network; network 0 runs --seed itself.
std::uint64_t network_seed(const Options& o, std::uint32_t network) {
  return o.seed + network * 0x9e3779b97f4a7c15ULL;
}

harness::PandasConfig make_config(const Options& o, std::uint32_t network) {
  harness::PandasConfig cfg;
  cfg.net.nodes = o.nodes;
  cfg.net.seed = network_seed(o, network);
  cfg.net.sim_threads = o.sim_threads;
  cfg.policy = o.policy == "single" ? core::SeedingPolicy::single()
                                    : core::SeedingPolicy::redundant(8);
  cfg.block_gossip = false;
  cfg.slots = o.slots;
  return cfg;
}

Episode run_episode(const Options& o, std::uint32_t network, bool traced,
                    Layers& layers) {
  constexpr double kDeadlineMs = 4000.0;
  const auto cfg = make_config(o, network);
  Episode ep;
  ep.network = network;
  ep.traced = traced;
  const auto t0 = Clock::now();
  harness::PandasExperiment exp(cfg);
  ep.setup_s = seconds_since(t0);
  ep.rss_after_setup_mb = current_rss_mb();

  const std::uint32_t n = o.nodes;
  std::vector<ShardSpans> spans(exp.parallel_engine().shards());
  if (traced) {
    wrap_handlers(exp, n, spans);
    exp.parallel_engine().set_profiling(true);
  }

  harness::PandasResults out;
  for (std::uint32_t s = 0; s < o.slots; ++s) {
    const double c0 = cpu_seconds();
    const auto w0 = Clock::now();
    exp.run_slot(s, out);
    ep.slot_wall_s.push_back(seconds_since(w0));
    ep.slot_cpu_s.push_back(cpu_seconds() - c0);
  }

  // Outcome, from the harness's own aggregation over correct node-slots. A
  // node that never sampled is censored at the slot's end.
  ep.ops = out.records;
  ep.corrupt_accepted = out.cells_corrupt_accepted;
  ep.fetch_mb_sum = out.fetch_mb.sum();
  ep.sampling_ms = out.sampling_ms.values();
  ep.sampling_ms.insert(ep.sampling_ms.end(), out.sampling_misses,
                        sim::to_ms(cfg.slot_duration));
  ep.late = static_cast<std::uint64_t>(
      std::count_if(ep.sampling_ms.begin(), ep.sampling_ms.end(),
                    [](double ms) { return ms > kDeadlineMs; }));
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!exp.fault_plan().of(i).faulty()) ep.correct_nodes += 1;
  }

  // Digest: every sample set and per-round fetch aggregate of the results,
  // in insertion order, then the per-class transport totals.
  Digest d;
  const auto add_samples = [&d](const util::Samples& samples) {
    d.add(samples.count());
    for (const double v : samples.values()) d.add(v);
  };
  for (const auto* samples :
       {&out.seed_ms, &out.consolidation_from_seed_ms, &out.consolidation_ms,
        &out.sampling_ms, &out.fetch_messages, &out.fetch_mb,
        &out.seed_cells}) {
    add_samples(*samples);
  }
  d.add(out.consolidation_misses);
  d.add(out.sampling_misses);
  d.add(out.cells_corrupt_rejected);
  d.add(out.cells_corrupt_accepted);
  d.add(out.rounds.size());
  for (const auto& r : out.rounds) {
    for (const auto* samples :
         {&r.messages, &r.requested, &r.replies_in, &r.replies_after,
          &r.cells_in, &r.cells_after, &r.duplicates, &r.reconstructed,
          &r.coverage_pct}) {
      add_samples(*samples);
    }
  }
  const auto totals = exp.transport().typed_totals();
  for (const auto& c : totals.by_class) {
    for (const std::uint64_t v :
         {c.msgs_sent, c.msgs_received, c.bytes_sent, c.bytes_received,
          c.cells_sent, c.cells_received, c.msgs_lost, c.cells_lost,
          c.msgs_to_dead}) {
      d.add(v);
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(d.h));
  ep.digest = hex;

  if (traced) {
    for (const auto& r : out.rounds) {
      layers.fetch_rounds += r.messages.count();
      layers.fetch_queries += static_cast<std::uint64_t>(r.messages.sum());
      layers.fetch_cells_requested +=
          static_cast<std::uint64_t>(r.requested.sum());
      layers.fetch_duplicates += static_cast<std::uint64_t>(r.duplicates.sum());
      layers.fetch_new_cells +=
          static_cast<std::uint64_t>(r.cells_in.sum() + r.cells_after.sum());
    }
    layers.slots += o.slots;
    for (const double w : ep.slot_wall_s) layers.wall_s += w;
    for (const auto& sp : spans) {
      for (std::size_t k = 0; k < kKinds; ++k) {
        layers.handler_s[k] += 1e-9 * static_cast<double>(sp.ns[k]);
        layers.calls[k] += sp.calls[k];
      }
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!exp.fault_plan().of(i).faulty()) {
        layers.fetch_peer_timeouts += exp.node(i).reputation().timeout_events();
      }
    }
    const auto prof = exp.parallel_engine().merged_profile();
    layers.events += prof.events;
    layers.engine_wall_s += prof.wall_seconds;
    layers.scheduler_allocs += prof.scheduler_allocs;
    layers.peak_queue_depth =
        std::max<std::uint64_t>(layers.peak_queue_depth, prof.peak_queue_depth);
    const auto& ws = exp.parallel_engine().window_stats();
    layers.windows += ws.windows;
    layers.lane_events += ws.lane_events;
    using net::MsgClass;
    layers.seed_bytes += totals.of(MsgClass::kSeed).bytes_sent;
    layers.query_msgs += totals.of(MsgClass::kQuery).msgs_sent;
    layers.response_msgs += totals.of(MsgClass::kResponse).msgs_sent;
    layers.response_bytes += totals.of(MsgClass::kResponse).bytes_sent;
    layers.response_cells_received +=
        totals.of(MsgClass::kResponse).cells_received;
    for (const auto& c : totals.by_class) layers.msgs_lost += c.msgs_lost;
  }
  return ep;
}

// Nearest-rank percentile of an ascending vector.
double percentile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

void print_number(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::fputs("null", stdout);
  }
}

void print_list(const std::vector<double>& vs) {
  std::fputc('[', stdout);
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i > 0) std::fputc(',', stdout);
    print_number(vs[i]);
  }
  std::fputc(']', stdout);
}

void print_layers(const Layers& l) {
  const double slots = l.slots;
  double handler_s = 0;
  for (const double s : l.handler_s) handler_s += s;
  const std::uint64_t received = l.fetch_new_cells + l.fetch_duplicates;
  const std::pair<const char*, double> rows[] = {
      {"core.on_seed_s", l.handler_s[kSeed] / slots},
      {"core.on_seed_calls", l.calls[kSeed] / slots},
      {"core.on_query_s", l.handler_s[kQuery] / slots},
      {"core.on_query_calls", l.calls[kQuery] / slots},
      {"core.on_reply_s", l.handler_s[kReply] / slots},
      {"core.on_reply_calls", l.calls[kReply] / slots},
      {"core.outside_handlers_s", (l.wall_s - handler_s) / slots},
      {"core.fetch_rounds", l.fetch_rounds / slots},
      {"core.fetch_queries", l.fetch_queries / slots},
      {"core.fetch_cells_requested", l.fetch_cells_requested / slots},
      {"core.fetch_duplicates", l.fetch_duplicates / slots},
      {"core.fetch_useful_ratio",
       received > 0 ? static_cast<double>(l.fetch_new_cells) / received : 0.0},
      {"core.fetch_peer_timeouts", l.fetch_peer_timeouts / slots},
      {"sim.events", l.events / slots},
      {"sim.events_per_s",
       l.engine_wall_s > 0 ? l.events / l.engine_wall_s : 0.0},
      {"sim.peak_queue_depth", static_cast<double>(l.peak_queue_depth)},
      {"sim.scheduler_allocs", l.scheduler_allocs / slots},
      {"sim.windows", l.windows / slots},
      {"sim.lane_events", l.lane_events / slots},
      {"net.seed.bytes_sent", l.seed_bytes / slots},
      {"net.query.msgs_sent", l.query_msgs / slots},
      {"net.response.msgs_sent", l.response_msgs / slots},
      {"net.response.bytes_sent", l.response_bytes / slots},
      {"net.response.cells_received", l.response_cells_received / slots},
      {"net.msgs_lost", l.msgs_lost / slots},
  };
  std::fputc('{', stdout);
  bool first = true;
  for (const auto& [name, value] : rows) {
    std::printf("%s\"%s\":", first ? "" : ",", name);
    print_number(value);
    first = false;
  }
  std::fputc('}', stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  // Set-up alone, repeated: set-up is short and noisy, so it gets more
  // samples than one per episode.
  constexpr int kSetupRepeats = 10;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    harness::PandasExperiment exp(make_config(o, 0));
    setup_s.push_back(seconds_since(t0));
  }

  Layers layers;
  std::vector<Episode> episodes;
  const auto start = Clock::now();
  do {
    for (std::uint32_t e = 0; e < o.networks; ++e) {
      if (!o.trace) {
        episodes.push_back(run_episode(o, e, false, layers));
        continue;
      }
      // Alternate which repeat goes first so warm-up favours neither.
      const bool traced_first = e % 2 == 1;
      episodes.push_back(run_episode(o, e, traced_first, layers));
      episodes.push_back(run_episode(o, e, !traced_first, layers));
    }
  } while (seconds_since(start) < o.seconds);

  // The simulated outcome is a pure function of the seed: pool it over the
  // first pass's untraced episodes (run.py checks that every repeat of a
  // network reproduces its digest).
  std::vector<double> sorted;
  double fetch_mb = 0;
  const std::size_t first_pass = o.networks * (o.trace ? 2u : 1u);
  for (std::size_t k = 0; k < first_pass; ++k) {
    const Episode& ep = episodes[k];
    if (ep.traced) continue;
    sorted.insert(sorted.end(), ep.sampling_ms.begin(), ep.sampling_ms.end());
    fetch_mb += ep.fetch_mb_sum;
  }
  std::sort(sorted.begin(), sorted.end());
  const double p98 = percentile(sorted, 0.98);
  const auto beyond_p98 = static_cast<std::size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(), p98));

  std::printf("{\"policy\":\"%s\",\"nodes\":%u,\"sim_threads\":%u,"
              "\"networks\":%u,\"slots_per_episode\":%u,\"seed\":%llu,"
              "\"peak_rss_mb\":",
              o.policy.c_str(), o.nodes, o.sim_threads, o.networks, o.slots,
              static_cast<unsigned long long>(o.seed));
  print_number(peak_rss_mb());
  std::fputs(",\"sampling_p50_ms\":", stdout);
  print_number(percentile(sorted, 0.50));
  std::fputs(",\"sampling_p98_ms\":", stdout);
  print_number(p98);
  std::printf(",\"beyond_p98\":%zu,\"fetch_mb_per_node\":", beyond_p98);
  print_number(fetch_mb / static_cast<double>(sorted.size()));
  std::fputs(",\"setup_s\":", stdout);
  print_list(setup_s);
  std::fputs(",\"episodes\":[", stdout);
  for (std::size_t k = 0; k < episodes.size(); ++k) {
    const Episode& ep = episodes[k];
    std::printf("%s{\"network\":%u,\"traced\":%s,\"digest\":\"%s\","
                "\"ops\":%llu,\"late\":%llu,\"correct_nodes\":%llu,"
                "\"corrupt_accepted\":%llu,\"setup_s\":",
                k > 0 ? "," : "", ep.network, ep.traced ? "true" : "false",
                ep.digest.c_str(), static_cast<unsigned long long>(ep.ops),
                static_cast<unsigned long long>(ep.late),
                static_cast<unsigned long long>(ep.correct_nodes),
                static_cast<unsigned long long>(ep.corrupt_accepted));
    print_number(ep.setup_s);
    std::fputs(",\"rss_after_setup_mb\":", stdout);
    print_number(ep.rss_after_setup_mb);
    std::fputs(",\"slot_wall_s\":", stdout);
    print_list(ep.slot_wall_s);
    std::fputs(",\"slot_cpu_s\":", stdout);
    print_list(ep.slot_cpu_s);
    std::fputc('}', stdout);
  }
  std::fputc(']', stdout);
  if (o.trace) {
    std::fputs(",\"layers\":", stdout);
    print_layers(layers);
  }
  std::fputs("}\n", stdout);
  return 0;
}
