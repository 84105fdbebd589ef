/**
 * @file
 * Golden-results gate over dsm-bench-v1 reports.
 *
 * Usage:
 *   bench_diff <baseline> <candidate>
 *
 * Each operand is either one BENCH_*.json file or a directory of them
 * (directories are matched by filename; a baseline bench missing from
 * the candidate is an error, extra candidate benches are ignored).
 * Every result value must equal its baseline exactly; each number that
 * moved, in either direction, is printed as a finding.
 *
 * Exit status: 0 = results equal, 1 = a result moved,
 * 2 = usage, parse, or structure error.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "stats/bench_diff.hh"

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: bench_diff <baseline> <candidate>\n"
                 "  operands are BENCH_*.json files or directories of "
                 "them\n");
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc != 3 || argv[1][0] == '-' || argv[2][0] == '-')
        usage();
    std::string base = argv[1], cand = argv[2];

    namespace fs = std::filesystem;
    bool base_dir = fs::is_directory(base);
    bool cand_dir = fs::is_directory(cand);
    if (base_dir != cand_dir) {
        std::fprintf(stderr,
                     "bench_diff: operands must both be files or both "
                     "be directories\n");
        return 2;
    }
    dsm::DiffResult res = base_dir
                              ? dsm::diffBenchDirs(base, cand)
                              : dsm::diffBenchFiles(base, cand);
    std::fputs(dsm::renderDiff(res).c_str(), stdout);
    if (!res.errors.empty())
        return 2;
    return res.regressions.empty() ? 0 : 1;
}
