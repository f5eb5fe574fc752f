/**
 * @file
 * Developer tool: print analytic (set-assoc) vs measured miss-rate
 * curves and CPI sensitivity for every benchmark over a ways sweep.
 * Used to tune the synthetic profiles against Table 1 / Figure 4.
 */
#include <cstdio>
#include "common/build_info.hh"
#include "sim/simulation.hh"
#include "workload/benchmark.hh"
#include "tool_flags.hh"
using namespace cmpqos;

int main(int argc, char** argv)
{
    if (handleVersionFlag("calibration_dump", argc, argv))
        return 0;
    InstCount n = 8'000'000;
    if (argc > 1)
        readFlag(argv[0], "instructions", argv[1], n,
                 "an instruction count");
    CmpConfig cfg; cfg.chunkInstructions = 50'000;
    for (const auto& b : BenchmarkRegistry::all()) {
        // Fixed access count across benchmarks: scale instructions.
        InstCount instr = static_cast<InstCount>(
            static_cast<double>(n) * 0.02 / b.h2);
        std::printf("%-11s h2=%.4f ", b.name.c_str(), b.h2);
        SoloRun m7, m4, m1;
        for (unsigned w : {1u,4u,5u,7u,8u,16u}) {
            double a = b.expectedL2MissRate(w);
            SoloRun m = runSolo(cfg, b, w, instr, 9);
            if (w==7) m7=m;
            if (w==4) m4=m;
            if (w==1) m1=m;
            std::printf("w%u[a%.3f m%.3f] ", w, a, m.missRate);
        }
        double inc71 = (m1.cpi-m7.cpi)/m7.cpi, inc74 = (m4.cpi-m7.cpi)/m7.cpi;
        std::printf("| mpi7=%.4f cpi7=%.2f inc71=%.0f%% inc74=%.0f%% -> %s (decl %s)\n",
            m7.missRate*b.h2, m7.cpi, inc71*100, inc74*100,
            sensitivityGroupName(classifySensitivity(inc71, inc74)),
            sensitivityGroupName(b.group));
    }
    return 0;
}
