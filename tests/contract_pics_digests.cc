/**
 * @file
 * The PICS contract across commits (`ctest -L contract`): runs the 15
 * Fig. 5 experiments and the 12-experiment smoke sweep (named
 * `probe/<experiment>`) with the cache off and compares each
 * digestResult against the digests committed in perfbench/reference.txt,
 * the one record of what the simulator and the profilers must produce.
 *
 * Every other determinism check compares two modes of one build, so a
 * change that moves every mode alike (a core timing change, a sampler
 * change) passes them; this one does not. Each mismatch prints as
 * `FAILED <experiment>: PICS digest <new> != committed <old>`, the
 * line perfbench prints; an intended change takes its new digests from
 * those lines.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/audit.hh"
#include "analysis/runner.hh"
#include "analysis/sweep.hh"
#include "workloads/workload.hh"

#ifndef TEA_REFERENCE_DIGESTS
#error "TEA_REFERENCE_DIGESTS must name perfbench/reference.txt"
#endif

using namespace tea;

namespace {

/**
 * The committed digests of the sets "fig5" and "kgen-probe", by
 * experiment name: one "<set> <experiment> <hex digest>" line each,
 * '#' starts a comment.
 */
std::map<std::string, std::uint64_t>
loadCommitted(const char *path)
{
    std::map<std::string, std::uint64_t> ref;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        line = line.substr(0, line.find('#'));
        char set[64], name[128];
        unsigned long long digest = 0;
        if (std::sscanf(line.c_str(), "%63s %127s %llx", set, name,
                        &digest) == 3 &&
            (std::string(set) == "fig5" || std::string(set) == "kgen-probe"))
            ref[name] = digest;
    }
    return ref;
}

} // namespace

int
main()
{
    const std::map<std::string, std::uint64_t> committed =
        loadCommitted(TEA_REFERENCE_DIGESTS);
    if (committed.empty()) {
        std::fprintf(stderr, "FAILED: no committed digests in %s\n",
                     TEA_REFERENCE_DIGESTS);
        return 1;
    }

    std::vector<SuiteExperiment> suite;
    for (const std::string &name : workloads::suiteNames())
        suite.push_back(SuiteExperiment{
            name, [name] { return workloads::byName(name); }, CoreConfig{}});
    for (const SweepExperiment &e : expandSweep(smokeSweep())) {
        const workloads::KernelSpec k = e.spec;
        suite.push_back(SuiteExperiment{
            "probe/" + e.name, [k] { return workloads::generateKernel(k); },
            e.cfg});
    }

    // Inline observers, no cache, at most four experiments in flight.
    RunnerOptions opts;
    opts.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    opts.cache.enabled = false;
    const std::vector<ExperimentResult> results =
        runExperimentSuite(suite, standardTechniques(), opts);

    unsigned failed = 0;
    for (const ExperimentResult &r : results) {
        const auto want = committed.find(r.name);
        if (r.failed()) {
            std::printf("FAILED %s: %s\n", r.name.c_str(), r.error.c_str());
        } else if (want == committed.end()) {
            std::printf("FAILED %s: PICS digest %016llx has no committed "
                        "reference\n",
                        r.name.c_str(),
                        static_cast<unsigned long long>(digestResult(r)));
        } else if (const std::uint64_t got = digestResult(r);
                   got != want->second) {
            std::printf("FAILED %s: PICS digest %016llx != committed "
                        "%016llx\n",
                        r.name.c_str(), static_cast<unsigned long long>(got),
                        static_cast<unsigned long long>(want->second));
        } else {
            continue;
        }
        ++failed;
    }
    if (committed.size() != results.size()) {
        std::printf("FAILED: %zu committed digests for %zu experiments\n",
                    committed.size(), results.size());
        ++failed;
    }
    std::printf("%zu experiment(s), %u failure(s) against %s\n",
                results.size(), failed, TEA_REFERENCE_DIGESTS);
    return failed == 0 ? 0 : 1;
}
