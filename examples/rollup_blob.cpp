// Layer-2 rollup scenario: the workload that motivates PANDAS (§1-§2).
//
// A rollup batches transactions off-chain and anchors them to layer 1
// through the data availability layer. This example moves REAL bytes through
// the erasure/commitment pipeline:
//   1. the rollup sequencer produces a compressed transaction batch;
//   2. the builder aggregates it into a blob, extends it with the 2-D
//      Reed-Solomon code, and commits to every row (KZG stand-in);
//   3. cells are verified against commitments as a sampling node would;
//   4. a fraud-proof verifier reconstructs the batch from a partial,
//      adversarially-chosen subset of cells (data withheld up to the
//      reconstruction threshold) and checks integrity end-to-end.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "erasure/extended_blob.h"
#include "harness/flags.h"
#include "harness/report.h"
#include "util/prng.h"

using namespace pandas;

namespace {

/// A toy rollup transaction batch: length-prefixed pseudo-transactions.
std::vector<std::uint8_t> make_batch(std::uint32_t tx_count,
                                     util::Xoshiro256& rng) {
  std::vector<std::uint8_t> out;
  for (std::uint32_t i = 0; i < tx_count; ++i) {
    const auto len = static_cast<std::uint32_t>(40 + rng.uniform(80));
    out.push_back(static_cast<std::uint8_t>(len));
    for (std::uint32_t b = 0; b < len; ++b) {
      out.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Flags flags;
  std::uint32_t txs = 1200;
  erasure::BlobConfig cfg;
  cfg.k = 32;
  flags.add("--txs", txs, "transactions in the rollup batch", 1u, 100'000u);
  flags.add("--k", cfg.k, "original cells per blob line", 1u, 256u);
  flags.parse(argc, argv);
  cfg.n = 2 * cfg.k;
  cfg.cell_bytes = 128;

  util::Xoshiro256 rng(99);
  const auto batch = make_batch(txs, rng);
  std::printf("rollup batch: %u txs, %s (blob capacity %s)\n", txs,
              util::format_bytes(static_cast<double>(batch.size())).c_str(),
              util::format_bytes(static_cast<double>(cfg.original_bytes())).c_str());
  if (batch.size() > cfg.original_bytes()) {
    std::printf("batch exceeds blob capacity; increase --k\n");
    return 1;
  }

  // Builder: encode + commit.
  const auto blob = erasure::ExtendedBlob::encode(cfg, batch);
  std::printf("extended blob: %ux%u cells, %s on the wire\n", cfg.n, cfg.n,
              util::format_bytes(static_cast<double>(cfg.extended_wire_bytes())).c_str());

  // Sampling node: verify random cells against commitments (the KZGP check
  // every node performs on received cells, §3).
  std::uint32_t verified = 0;
  for (int i = 0; i < 73; ++i) {
    const auto r = static_cast<std::uint32_t>(rng.uniform(cfg.n));
    const auto c = static_cast<std::uint32_t>(rng.uniform(cfg.n));
    const auto proof = blob.cell_proof(r, c);
    if (blob.verify_cell(r, c, blob.cell(r, c), proof)) ++verified;
  }
  std::printf("sampling verification: %u/73 random cells verified\n", verified);

  // A corrupted cell must be rejected.
  {
    const auto span = blob.cell(3, 5);
    std::vector<std::uint8_t> cell(span.begin(), span.end());
    cell[0] ^= 0x01;
    const auto proof = blob.cell_proof(3, 5);
    std::printf("corrupted-cell check: %s\n",
                blob.verify_cell(3, 5, cell, proof) ? "ACCEPTED (BUG!)"
                                                    : "rejected (correct)");
  }

  // Fraud-proof verifier: an adversary withholds the right half of every
  // row; reconstruct each row from its surviving k cells and recover the
  // full original batch.
  std::vector<std::uint8_t> recovered;
  recovered.reserve(cfg.original_bytes());
  for (std::uint32_t r = 0; r < cfg.k; ++r) {
    std::vector<std::vector<std::uint8_t>> cells;
    std::vector<std::uint32_t> indices;
    for (std::uint32_t c = 0; c < cfg.k; ++c) {  // only the left half survives
      const auto span = blob.cell(r, c);
      cells.emplace_back(span.begin(), span.end());
      indices.push_back(c);
    }
    const auto line = erasure::ExtendedBlob::reconstruct_line(cfg, cells, indices);
    if (!line) {
      std::printf("row %u reconstruction FAILED\n", r);
      return 1;
    }
    for (std::uint32_t c = 0; c < cfg.k; ++c) {
      recovered.insert(recovered.end(), (*line)[c].begin(), (*line)[c].end());
    }
  }
  recovered.resize(batch.size());
  const bool intact = std::memcmp(recovered.data(), batch.data(),
                                  batch.size()) == 0;
  std::printf("fraud-proof reconstruction from 50%% of cells: %s\n",
              intact ? "batch recovered bit-exact" : "MISMATCH");

  // Replay the batch (a fraud-prover would re-execute; we just re-parse).
  std::size_t offset = 0, parsed = 0;
  while (offset < recovered.size()) {
    const std::uint8_t len = recovered[offset];
    if (len == 0 || offset + 1 + len > recovered.size()) break;
    offset += 1 + len;
    ++parsed;
  }
  std::printf("re-parsed %zu/%u transactions from recovered data\n", parsed, txs);
  return intact && verified == 73 ? 0 : 1;
}
