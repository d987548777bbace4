/**
 * @file
 * Runs the checked-in example sweep (analysis/sweep): generated
 * bottleneck kernels x core-config presets, every expanded experiment
 * simulated through the replay engine with the standard technique set
 * observing, and the per-sweep PICS comparison report printed.
 *
 * TEA_SWEEP_SMOKE=1 runs the 12-experiment CI smoke sweep instead; the
 * usual runner knobs (TEA_THREADS, TEA_AUDIT, TEA_TRACE_CACHE, ...)
 * apply. TEA_SWEEP_REPORT=FILE additionally writes the report there.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "analysis/sweep.hh"
#include "common/env.hh"

using namespace tea;

int
main()
{
    RunnerOptions opts = RunnerOptions::fromEnv();
    const SweepSpec spec = envUnsignedIn("TEA_SWEEP_SMOKE", 0, 1) != 0
                               ? smokeSweep()
                               : exampleSweep();

    const auto start = std::chrono::steady_clock::now();
    SweepRunResult run = runSweep(spec, standardTechniques(), opts);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    const std::string report = renderSweepReport(run);
    std::fputs(report.c_str(), stdout);
    std::printf("[%zu experiment(s), %u thread(s), %.2f s total]\n",
                run.experiments.size(), opts.threads, seconds);

    if (const char *path = std::getenv("TEA_SWEEP_REPORT")) {
        if (std::FILE *f = std::fopen(path, "w")) {
            std::fputs(report.c_str(), f);
            std::fclose(f);
        } else {
            std::fprintf(stderr, "sweep_kernels: cannot write %s\n", path);
            return 1;
        }
    }
    return suiteExitCode(run.results);
}
