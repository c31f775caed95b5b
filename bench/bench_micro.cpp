// Micro-benchmarks (google-benchmark) for the computational substrates:
// SHA-256, GF(2^16) arithmetic, Reed-Solomon encode/decode at Danksharding
// line parameters, 2-D blob extension, assignment computation, one adaptive
// fetch round, and the event-queue hot path.
//
//   ./build/bench/bench_micro [--benchmark_filter=...]

#include <benchmark/benchmark.h>

#include "core/assignment.h"
#include "core/fetcher.h"
#include "core/view.h"
#include "crypto/sha256.h"
#include "erasure/extended_blob.h"
#include "erasure/kernels.h"
#include "erasure/reed_solomon.h"
#include "net/messages.h"
#include "sim/engine.h"
#include "util/prng.h"

namespace {

using namespace pandas;

std::vector<std::uint8_t> random_slab(std::size_t bytes, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(bytes);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform(256));
  return out;
}

/// Skips the benchmark when the requested tier cannot run here (e.g. AVX2
/// on a pre-Haswell box); the remaining tiers still report.
bool skip_unsupported(benchmark::State& state, erasure::kernels::Tier tier) {
  if (erasure::kernels::tier_supported(tier)) return false;
  state.SkipWithError("kernel tier not supported on this CPU/build");
  return true;
}

void BM_Sha256_1KiB(benchmark::State& state) {
  std::vector<std::uint8_t> data(1024, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_GF16_Mul(benchmark::State& state) {
  const auto& gf = erasure::GF16::instance();
  std::uint16_t a = 12345, b = 321;
  for (auto _ : state) {
    a = gf.mul(a, b);
    b ^= 1;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_GF16_Mul);

// Bulk muladd throughput per dispatch tier over a 256 KB slab (the size of
// one full blob row at Danksharding parameters). The reported bytes/second
// is the GB/s figure cited in docs/ERASURE.md.
//   Arg 0: kernels::Tier (0 reference, 1 scalar, 2 ssse3, 3 avx2)
void BM_Gf16Muladd(benchmark::State& state) {
  const auto tier = static_cast<erasure::kernels::Tier>(state.range(0));
  if (skip_unsupported(state, tier)) return;
  constexpr std::size_t kBytes = 256 * 1024;
  const auto src = random_slab(kBytes, 21);
  auto dst = random_slab(kBytes, 22);
  erasure::kernels::MulTables tables;
  erasure::kernels::build_tables(0x1234, tables);
  for (auto _ : state) {
    erasure::kernels::muladd(dst.data(), src.data(), tables, kBytes, tier);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBytes);
  state.SetLabel(erasure::kernels::tier_name(tier));
}
BENCHMARK(BM_Gf16Muladd)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// One Danksharding line (k=256 -> n=512, 512 B cells) through the flat slab
// path, per tier. Bytes processed = the 128 KB of data cells per encode.
void BM_ReedSolomon_EncodeLineSlab(benchmark::State& state) {
  const auto tier = static_cast<erasure::kernels::Tier>(state.range(0));
  if (skip_unsupported(state, tier)) return;
  constexpr std::size_t kCellBytes = 512;
  const auto& rs = erasure::ReedSolomon::cached(256, 512);
  auto slab = random_slab(512 * kCellBytes, 23);
  for (auto _ : state) {
    rs.encode_lines(slab.data(), kCellBytes, 0, 1, tier);
    benchmark::DoNotOptimize(slab.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 256 *
                          kCellBytes);
  state.SetLabel(erasure::kernels::tier_name(tier));
}
BENCHMARK(BM_ReedSolomon_EncodeLineSlab)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_ReedSolomon_EncodeLine(benchmark::State& state) {
  // One Danksharding line: k=256 data cells of `cell_bytes` each -> 256
  // parity cells. cell_bytes is the state arg (512 = production).
  const auto cell_bytes = static_cast<std::size_t>(state.range(0));
  const erasure::ReedSolomon rs(256, 512);
  util::Xoshiro256 rng(1);
  std::vector<std::vector<std::uint8_t>> data(256);
  for (auto& cell : data) {
    cell.resize(cell_bytes);
    for (auto& byte : cell) byte = static_cast<std::uint8_t>(rng.uniform(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.encode(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 256 *
                          static_cast<std::int64_t>(cell_bytes));
}
BENCHMARK(BM_ReedSolomon_EncodeLine)->Arg(32)->Arg(512);

void BM_ReedSolomon_DecodeLine(benchmark::State& state) {
  const erasure::ReedSolomon rs(256, 512);
  util::Xoshiro256 rng(2);
  std::vector<std::vector<std::uint8_t>> data(256);
  for (auto& cell : data) {
    cell.resize(32);
    for (auto& byte : cell) byte = static_cast<std::uint8_t>(rng.uniform(256));
  }
  auto parity = rs.encode(data);
  // Decode from the parity half (worst case: full matrix inversion).
  std::vector<std::uint32_t> indices(256);
  for (std::uint32_t i = 0; i < 256; ++i) indices[i] = 256 + i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.reconstruct_data(parity, indices));
  }
}
BENCHMARK(BM_ReedSolomon_DecodeLine);

void BM_ExtendedBlob_Encode(benchmark::State& state) {
  // Scaled-down blob (k=32, n=64, 64 B cells); the full 32 MB blob encode is
  // a one-off cost at the builder, not a per-message cost.
  erasure::BlobConfig cfg;
  cfg.k = 32;
  cfg.n = 64;
  cfg.cell_bytes = 64;
  std::vector<std::uint8_t> data(cfg.original_bytes(), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(erasure::ExtendedBlob::encode(cfg, data));
  }
}
BENCHMARK(BM_ExtendedBlob_Encode);

// Full production blob: k=256 -> n=512, 512 B cells (32 MB original,
// ~137 MB extended). This is the acceptance-criterion benchmark: the wall
// time per tier here, divided by BM_ExtendedBlob_EncodeFullReference, is
// the speedup quoted in docs/ERASURE.md and EXPERIMENTS.md.
//   Arg 0: kernels::Tier (1 scalar, 2 ssse3, 3 avx2)
erasure::BlobConfig full_blob_config(erasure::kernels::Tier tier) {
  erasure::BlobConfig cfg;
  cfg.k = 256;
  cfg.n = 512;
  cfg.cell_bytes = 512;
  cfg.kernel = tier;
  return cfg;
}

void BM_ExtendedBlob_EncodeFull(benchmark::State& state) {
  const auto tier = static_cast<erasure::kernels::Tier>(state.range(0));
  if (skip_unsupported(state, tier)) return;
  const auto cfg = full_blob_config(tier);
  const auto data = random_slab(cfg.original_bytes(), 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(erasure::ExtendedBlob::encode(cfg, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.original_bytes()));
  state.SetLabel(erasure::kernels::tier_name(tier));
}
BENCHMARK(BM_ExtendedBlob_EncodeFull)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

// Seed-path baseline for the speedup claim. The per-symbol reference tier
// takes minutes on the full blob, so it runs exactly once.
void BM_ExtendedBlob_EncodeFullReference(benchmark::State& state) {
  const auto cfg = full_blob_config(erasure::kernels::Tier::kReference);
  const auto data = random_slab(cfg.original_bytes(), 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(erasure::ExtendedBlob::encode(cfg, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.original_bytes()));
  state.SetLabel(erasure::kernels::tier_name(erasure::kernels::Tier::kReference));
}
BENCHMARK(BM_ExtendedBlob_EncodeFullReference)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_Assignment_Compute(benchmark::State& state) {
  const core::ProtocolParams params;
  const auto seed = core::epoch_seed(1, 0);
  std::uint64_t label = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_assignment(
        params, seed, crypto::NodeId::from_label(label++)));
  }
}
BENCHMARK(BM_Assignment_Compute);

void BM_AssignmentTable_Build10k(benchmark::State& state) {
  const core::ProtocolParams params;
  const auto dir = net::Directory::create(10000);
  const auto seed = core::epoch_seed(1, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::AssignmentTable(params, dir, seed));
  }
}
BENCHMARK(BM_AssignmentTable_Build10k)->Unit(benchmark::kMillisecond);

// One adaptive-fetch round (paper §7) at production parameters: a fetcher on
// an n=1000 network starts on a synthetic F — 64 random missing cells on
// each of its 16 assigned lines plus 73 random samples, no boost map — and
// plans its first round (gather, score, rank, plan) into a no-op sink. The
// `queries` counter is the queries planned per round.
void BM_FetcherRound(benchmark::State& state) {
  const core::ProtocolParams params;
  constexpr std::uint32_t kNodes = 1000;
  constexpr net::NodeIndex kSelf = 17;
  const auto dir = net::Directory::create(kNodes);
  const core::AssignmentTable table(params, dir, core::epoch_seed(1, 0));
  const core::View view = core::View::full(kNodes);
  util::Xoshiro256 rng(5);
  std::vector<net::CellId> needed;
  for (const auto line : table.of(kSelf).lines()) {
    for (const auto pos : rng.sample_distinct(params.matrix_n, 64)) {
      const auto p = static_cast<std::uint16_t>(pos);
      needed.push_back(line.kind == net::LineRef::Kind::kRow
                           ? net::CellId{line.index, p}
                           : net::CellId{p, line.index});
    }
  }
  for (std::uint32_t i = 0; i < params.samples_per_node; ++i) {
    needed.push_back({static_cast<std::uint16_t>(rng.uniform(params.matrix_n)),
                      static_cast<std::uint16_t>(rng.uniform(params.matrix_n))});
  }
  sim::Engine engine(1);
  std::uint64_t queries = 0;
  for (auto _ : state) {
    auto fetcher = std::make_shared<core::AdaptiveFetcher>(
        engine, params, table, &view, kSelf, util::Xoshiro256(9));
    fetcher->start(needed, {},
                   [&queries](net::NodeIndex, std::vector<net::CellId>,
                              std::uint32_t, bool) { ++queries; });
    engine.clear();  // drops the next-round timer
  }
  state.counters["queries"] = benchmark::Counter(
      static_cast<double>(queries), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FetcherRound)->Unit(benchmark::kMicrosecond);

// Proof-tag generation with a reused scratch buffer (the overload the
// builder-seeding and fetcher-reply paths use) vs the allocating form.
//   Arg 0: 0 = scratch overload, 1 = returning overload
void BM_ProofTags(benchmark::State& state) {
  std::vector<net::CellId> cells;
  for (std::uint16_t r = 0; r < 8; ++r) {
    for (std::uint16_t c = 0; c < 64; ++c) cells.push_back({r, c});
  }
  std::vector<std::uint64_t> scratch;
  const bool alloc = state.range(0) == 1;
  for (auto _ : state) {
    if (alloc) {
      auto tags = net::proof_tags(7, cells);
      benchmark::DoNotOptimize(tags.data());
    } else {
      net::proof_tags(7, cells, scratch);
      benchmark::DoNotOptimize(scratch.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cells.size()));
}
BENCHMARK(BM_ProofTags)->Arg(0)->Arg(1);

void BM_EventQueue_PushPop(benchmark::State& state) {
  sim::Engine engine(1);
  std::uint64_t counter = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      engine.schedule_in((i * 37) % 100, [&counter] { ++counter; });
    }
    engine.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_EventQueue_PushPop);

// Scheduler throughput at simulation-like queue depths: a self-renewing
// population of timers (each callback reschedules itself with a spread of
// delays, like retransmit/deadline timers in a live run). items/second is
// the events/sec figure quoted in EXPERIMENTS.md; the `allocs` counter is
// container growths observed during the measured (steady-state) phase — the
// zero-allocation acceptance criterion for the calendar queue.
//   Arg: pending events
void BM_Engine_SteadyState(benchmark::State& state) {
  const auto population = static_cast<std::uint64_t>(state.range(0));
  sim::Engine engine;
  // Delay spread mimicking a PANDAS slot: mostly sub-ms hops with a tail of
  // multi-second deadline timers, all derived deterministically.
  struct Timer {
    sim::Engine* eng;
    std::uint64_t salt;
    void operator()() const {
      const std::uint64_t d = util::mix64(eng->now() ^ salt);
      const sim::Time delay =
          (d % 997) + (d % 7 == 0 ? 4 * sim::kSecond : sim::Time{0}) + 1;
      eng->schedule_in(delay, Timer{eng, salt + 1});
    }
  };
  for (std::uint64_t i = 0; i < population; ++i) {
    engine.schedule_in(1 + i % 997, Timer{&engine, i});
  }
  // Warm the pools past the initial growth phase before measuring.
  engine.run_until(engine.now() + 100 * sim::kMillisecond);
  const std::uint64_t allocs_before = engine.scheduler_allocs();
  std::uint64_t events = 0;
  for (auto _ : state) {
    events += engine.run_until(engine.now() + 10 * sim::kMillisecond);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["allocs"] = static_cast<double>(engine.scheduler_allocs() -
                                                 allocs_before);
  state.counters["capacity"] = static_cast<double>(engine.event_capacity());
}
BENCHMARK(BM_Engine_SteadyState)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

}  // namespace

BENCHMARK_MAIN();
