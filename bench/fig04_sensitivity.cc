/**
 * @file
 * Figure 4 reproduction: cache-space sensitivity of all fifteen
 * benchmarks — the measured CPI increase when a benchmark's L2
 * allocation shrinks from 7 ways to 1 way (x-axis) and from 7 ways
 * to 4 ways (y-axis), with the resulting Group 1/2/3 classification.
 */

#include "bench/harness.hh"
#include "sim/simulation.hh"

int
main()
{
    using namespace cmpqos;
    using cmpqos::stats::TablePrinter;

    bench::printHeader(
        "Figure 4: benchmark sensitivity to cache capacity",
        "Section 6, Figure 4 (CPI increase 7->1 and 7->4 ways)");

    const InstCount instr =
        std::max<InstCount>(bench::jobInstructions() / 4, 5'000'000);
    const std::uint64_t seed = bench::workloadSeed();
    CmpConfig cfg;
    cfg.chunkInstructions = 25'000;

    TablePrinter t("CPI increase when shrinking the L2 allocation");
    t.header({"benchmark", "CPI@7w", "7->1 ways", "7->4 ways",
              "measured group", "declared group"});

    int mismatches = 0;
    for (const auto &b : BenchmarkRegistry::all()) {
        // Fixed L2 access count across benchmarks (see tab01).
        const InstCount scaled = static_cast<InstCount>(
            static_cast<double>(instr) * 0.02 / b.h2);
        const double cpi7 = runSolo(cfg, b, 7, scaled, seed).cpi;
        const double cpi4 = runSolo(cfg, b, 4, scaled, seed).cpi;
        const double cpi1 = runSolo(cfg, b, 1, scaled, seed).cpi;
        const double inc71 = (cpi1 - cpi7) / cpi7;
        const double inc74 = (cpi4 - cpi7) / cpi7;
        const SensitivityGroup measured =
            classifySensitivity(inc71, inc74);
        if (measured != b.group)
            ++mismatches;
        t.row({b.name, TablePrinter::fmt(cpi7, 2),
               TablePrinter::fmtPercent(inc71 * 100.0, 1),
               TablePrinter::fmtPercent(inc74 * 100.0, 1),
               sensitivityGroupName(measured),
               sensitivityGroupName(b.group)});
    }
    t.print(std::cout);
    std::cout << "\nGroup mismatches vs calibration targets: "
              << mismatches << " of "
              << BenchmarkRegistry::all().size() << "\n";
    std::cout << "Paper shape: three clusters — highly sensitive"
                 " (bzip2, mcf, ...),\nmoderately sensitive (hmmer,"
                 " gcc, ...), insensitive (gobmk, milc, ...).\n";
    return mismatches > 2 ? 1 : 0;
}
