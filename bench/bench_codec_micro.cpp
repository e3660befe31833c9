// Micro-benchmarks (google-benchmark) for the ODH codecs behind the paper's
// §3 claims: value compression (linear / quantization / XOR), timestamp
// delta-of-delta coding, whole-ValueBlob encode/decode and the CRC32C page
// and WAL checksum. These quantify the per-point CPU cost that the macro
// benches (Figures 5/6) aggregate.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "common/random.h"
#include "core/value_blob.h"
#include "storage/checksum.h"

namespace odh::core {
namespace {

std::vector<double> SmoothSignal(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = 20 + 5 * std::sin(0.01 * i);
  return v;
}

std::vector<double> NoisySignal(size_t n) {
  Random rng(99);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = rng.UniformDouble(0, 100);
  return v;
}

CompressionSpec Forced(ValueCodec codec, double e) {
  CompressionSpec spec;
  spec.force = true;
  spec.forced_codec = codec;
  spec.max_error = e;
  return spec;
}

void BM_EncodeColumn(benchmark::State& state, ValueCodec codec, double e,
                     bool smooth) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> v = smooth ? SmoothSignal(n) : NoisySignal(n);
  CompressionSpec spec = Forced(codec, e);
  size_t encoded_bytes = 0;
  for (auto _ : state) {
    std::string out;
    benchmark::DoNotOptimize(EncodeColumn(v.data(), n, spec, &out));
    encoded_bytes = out.size();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["compression_x"] =
      static_cast<double>(n * 8) / static_cast<double>(encoded_bytes);
}

void BM_DecodeColumn(benchmark::State& state, ValueCodec codec, double e,
                     bool smooth) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> v = smooth ? SmoothSignal(n) : NoisySignal(n);
  std::string encoded;
  (void)EncodeColumn(v.data(), n, Forced(codec, e), &encoded);
  std::vector<double> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeColumn(Slice(encoded), n, &out));
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_TimestampCodec(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Timestamp> ts(n);
  for (size_t i = 0; i < n; ++i) ts[i] = static_cast<Timestamp>(i) * 20000;
  for (auto _ : state) {
    std::string out;
    EncodeTimestamps(ts.data(), n, ts[0], &out);
    Slice in(out);
    std::vector<Timestamp> decoded;
    benchmark::DoNotOptimize(DecodeTimestamps(&in, n, ts[0], &decoded));
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_RtsBlobRoundTrip(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int tags = 4;
  SeriesBatch batch;
  batch.id = 1;
  batch.columns.resize(tags);
  for (size_t i = 0; i < n; ++i) {
    batch.timestamps.push_back(static_cast<Timestamp>(i) * 20000);
    for (int t = 0; t < tags; ++t) {
      batch.columns[t].push_back(20 + t + 5 * std::sin(0.01 * i));
    }
  }
  ValueBlobCodec codec{CompressionSpec{}};
  for (auto _ : state) {
    std::string blob;
    benchmark::DoNotOptimize(codec.EncodeRts(batch, 20000, &blob));
    SeriesBatch out;
    benchmark::DoNotOptimize(
        codec.DecodeRts(Slice(blob), 1, 0, 20000, {}, tags, &out));
  }
  state.SetItemsProcessed(state.iterations() * n * tags);
}

void BM_TagOrientedDecode(benchmark::State& state) {
  // Decoding 1 of 16 tags vs all 16: the tag-oriented directory saving.
  const size_t n = 256;
  const int tags = 16;
  const bool partial = state.range(0) == 1;
  SeriesBatch batch;
  batch.id = 1;
  batch.columns.resize(tags);
  for (size_t i = 0; i < n; ++i) {
    batch.timestamps.push_back(static_cast<Timestamp>(i) * 20000);
    for (int t = 0; t < tags; ++t) {
      batch.columns[t].push_back(t + std::sin(0.01 * i));
    }
  }
  ValueBlobCodec codec{CompressionSpec{}};
  std::string blob;
  (void)codec.EncodeRts(batch, 20000, &blob);
  std::vector<int> wanted = partial ? std::vector<int>{3}
                                    : std::vector<int>{};
  for (auto _ : state) {
    SeriesBatch out;
    benchmark::DoNotOptimize(
        codec.DecodeRts(Slice(blob), 1, 0, 20000, wanted, tags, &out));
  }
  state.SetItemsProcessed(state.iterations() * n);
}

/// Checksums one buffer (a page is 4096 bytes) with the dispatching
/// ExtendCrc32c, or with the portable slicing-by-8 path it falls back to.
void BM_Crc32c(benchmark::State& state, bool portable) {
  const size_t n = static_cast<size_t>(state.range(0));
  Random rng(7);
  std::string data(n, '\0');
  for (char& c : data) c = static_cast<char>(rng.Uniform(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        portable ? storage::ExtendCrc32cPortable(0, data.data(), n)
                 : storage::ExtendCrc32c(0, data.data(), n));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(n));
}

BENCHMARK_CAPTURE(BM_EncodeColumn, xor_smooth, ValueCodec::kXor, 0.0, true)
    ->Arg(256)->Arg(1024);
BENCHMARK_CAPTURE(BM_EncodeColumn, linear_smooth, ValueCodec::kLinear, 0.1,
                  true)
    ->Arg(256)->Arg(1024);
BENCHMARK_CAPTURE(BM_EncodeColumn, quant_noisy, ValueCodec::kQuantized, 0.1,
                  false)
    ->Arg(256)->Arg(1024);
BENCHMARK_CAPTURE(BM_DecodeColumn, xor_smooth, ValueCodec::kXor, 0.0, true)
    ->Arg(256)->Arg(1024);
BENCHMARK_CAPTURE(BM_DecodeColumn, linear_smooth, ValueCodec::kLinear, 0.1,
                  true)
    ->Arg(1024);
BENCHMARK_CAPTURE(BM_DecodeColumn, quant_noisy, ValueCodec::kQuantized, 0.1,
                  false)
    ->Arg(256)->Arg(1024);
BENCHMARK_CAPTURE(BM_Crc32c, dispatch, false)->Arg(64)->Arg(4096);
BENCHMARK_CAPTURE(BM_Crc32c, portable, true)->Arg(64)->Arg(4096);
BENCHMARK(BM_TimestampCodec)->Arg(1024);
BENCHMARK(BM_RtsBlobRoundTrip)->Arg(256)->Arg(1024);
BENCHMARK(BM_TagOrientedDecode)->Arg(0)->Arg(1);

}  // namespace
}  // namespace odh::core

BENCHMARK_MAIN();
