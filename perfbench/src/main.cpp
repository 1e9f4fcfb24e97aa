/**
 * @file
 * perfbench: one workload of the end-to-end benchmark per process.
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --worker-bin PATH --work-dir DIR
 *   perfbench --self-test --worker-bin PATH --work-dir DIR
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics. With --trace 0 the metrics
 * are the end-to-end ones, with --trace 1 the per-layer ones. The exit
 * code is non-zero when any output check fails.
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.hpp"
#include "kernels/kernels.hpp"

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --worker-bin PATH --work-dir DIR\n"
                 "       perfbench --self-test --worker-bin PATH "
                 "--work-dir DIR\n");
}

/** CPU model, vCPUs, kernel ISA and compiler, to standard error. */
void
printFingerprint()
{
    std::string model = "unknown";
    if (std::FILE *f = std::fopen("/proc/cpuinfo", "r")) {
        char line[512];
        while (std::fgets(line, sizeof line, f) != nullptr) {
            const std::string s = line;
            if (s.rfind("model name", 0) == 0) {
                model = s.substr(s.find(':') + 2);
                model.erase(model.find_last_not_of("\n") + 1);
                break;
            }
        }
        std::fclose(f);
    }
    std::fprintf(stderr,
                 "perfbench: cpu \"%s\", %u vCPUs, kernels %s, "
                 "compiler %s\n",
                 model.c_str(), std::thread::hardware_concurrency(),
                 a3::kernelIsaName(a3::activeKernels().isa),
                 __VERSION__);
}

}  // namespace

int
main(int argc, char **argv)
{
    pb::RunOptions options;
    options.processStart = pb::now();
    bool selfTest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload")
            options.workload = value();
        else if (arg == "--seed")
            options.seed = std::stoull(value());
        else if (arg == "--seconds")
            options.seconds = std::stod(value());
        else if (arg == "--trace")
            options.trace = value() != "0";
        else if (arg == "--worker-bin")
            options.workerBin = value();
        else if (arg == "--work-dir")
            options.workDir = value();
        else if (arg == "--self-test")
            selfTest = true;
        else {
            usage();
            return 2;
        }
    }
    if (options.workerBin.empty() || options.workDir.empty() ||
        (!selfTest && options.workload.empty())) {
        usage();
        return 2;
    }
    printFingerprint();
    if (selfTest)
        return pb::runSelfTest(options);

    const pb::RunResult result = pb::runWorkload(options);
    for (const std::string &failure : result.checks.failures)
        std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
    std::fprintf(stderr, "perfbench: %zu outputs checked\n",
                 result.checks.checked);

    std::string json = "{\"correct\": ";
    json += result.checks.ok() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : result.metrics) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metric.value);
        json += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
                value + ", \"unit\": \"" + metric.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return result.checks.ok() ? 0 : 1;
}
