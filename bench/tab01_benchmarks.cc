/**
 * @file
 * Table 1 reproduction: the three representative benchmarks' L2 miss
 * rate and L2 misses-per-instruction when allocated 7 of 16 ways,
 * measured by running each synthetic model through the real
 * partitioned L2, next to the paper's reported values.
 */

#include "bench/harness.hh"
#include "sim/simulation.hh"

int
main()
{
    using namespace cmpqos;
    using cmpqos::stats::TablePrinter;

    bench::printHeader(
        "Table 1: representative benchmarks at 7 of 16 L2 ways",
        "Section 6, Table 1");

    struct PaperRow
    {
        const char *name;
        double missRate;
        double mpi;
    };
    const PaperRow paper[] = {
        {"bzip2", 0.20, 0.0055},
        {"hmmer", 0.17, 0.0010},
        {"gobmk", 0.24, 0.0040},
    };

    const InstCount instr =
        std::max<InstCount>(bench::jobInstructions(), 10'000'000);
    CmpConfig cfg;
    cfg.chunkInstructions = 25'000;

    TablePrinter t("L2 behaviour at 7 ways (measured vs paper)");
    t.header({"benchmark", "input", "miss rate", "paper", "L2 MPI",
              "paper", "skipped(M)"});
    for (const auto &row : paper) {
        const auto &b = BenchmarkRegistry::get(row.name);
        // Fixed L2 access count across benchmarks: scale instructions
        // by 1/h2 so low-h2 benchmarks get equally long measurements.
        const InstCount scaled = static_cast<InstCount>(
            static_cast<double>(instr) * 0.02 / b.h2);
        const SoloRun m =
            runSolo(cfg, b, 7, scaled, bench::workloadSeed());
        const double mpi = static_cast<double>(m.l2Misses) /
                           static_cast<double>(m.executed);
        t.row({b.name, b.inputSet,
               TablePrinter::fmtPercent(m.missRate * 100.0, 1),
               TablePrinter::fmtPercent(row.missRate * 100.0, 0),
               TablePrinter::fmt(mpi, 4),
               TablePrinter::fmt(row.mpi, 4),
               std::to_string(b.skippedInstrM)});
    }
    t.print(std::cout);
    return 0;
}
