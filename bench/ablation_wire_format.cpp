// Ablation: wire format for the distributed exchanges on scale-16 R-MAT.
// The paper ships raw 16-byte (vertex, parent) candidates through every
// Alltoallv; the sieve drops globally-visited targets on the sender and
// the bitmap/varint codecs compress what remains, with `auto` picking the
// smaller encoding per (destination, level). BFS outputs are identical in
// every row — this sweep measures only the metered bytes and the priced
// time shift (decode cost at beta_L vs bytes saved at beta_N).
#include "harness/harness.hpp"

int main() {
  using namespace dbfs;
  using namespace dbfs::bench;

  const int scale = util::bench_scale(16);
  const int cores = 64;
  Workload w = make_rmat_workload(scale, 16, bench_sources(2));

  const auto machine =
      scaled_machine(model::hopper(), w.built.directed_edge_count, 33.0);

  print_header("Ablation: exchange wire format (sieve + compression)",
               "beyond the paper's raw candidate exchange",
               "ours: scale " + std::to_string(scale) + " R-MAT, " +
                   std::to_string(cores) + " cores");

  const comm::WireFormat formats[] = {
      comm::WireFormat::kRaw, comm::WireFormat::kSieve,
      comm::WireFormat::kBitmap, comm::WireFormat::kVarint,
      comm::WireFormat::kAuto};
  const core::Algorithm algos[] = {core::Algorithm::kOneDFlat,
                                   core::Algorithm::kTwoDFlat};

  for (core::Algorithm algo : algos) {
    std::printf("\n-- %s --\n", core::to_string(algo));
    std::printf("%-8s %16s %16s %10s %14s %10s\n", "format", "a2a bytes",
                "ag bytes", "vs raw", "BFS time (ms)", "GTEPS");
    std::uint64_t raw_total = 0;
    for (comm::WireFormat format : formats) {
      core::EngineOptions opts;
      opts.algorithm = algo;
      opts.cores = cores;
      opts.machine = machine;
      opts.wire_format = format;
      const MeanTimes mt = run_config(w, opts);
      const std::uint64_t a2a_bytes = mt.a2a_bytes;
      const std::uint64_t ag_bytes = mt.ag_bytes;
      const double total = mt.total;
      const std::uint64_t metered = a2a_bytes + ag_bytes;
      if (format == comm::WireFormat::kRaw) raw_total = metered;
      std::printf("%-8s %16llu %16llu %9.3fx %14.3f %10.3f\n",
                  comm::to_string(format),
                  static_cast<unsigned long long>(a2a_bytes),
                  static_cast<unsigned long long>(ag_bytes),
                  raw_total > 0 ? static_cast<double>(metered) /
                                      static_cast<double>(raw_total)
                                : 1.0,
                  total * 1e3,
                  static_cast<double>(w.built.directed_edge_count) / total /
                      1e9);
    }
  }
  std::printf(
      "\nexpected: sieve alone roughly halves the alltoall volume on R-MAT "
      "(most candidates re-target visited hubs); auto tracks the best of "
      "bitmap (dense early levels) and varint (sparse tail levels) for the "
      "largest reduction, at a small priced encode/decode cost\n");
  return 0;
}
