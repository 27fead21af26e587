/**
 * @file
 * Proves every benchmark correctness check can fire: each check must
 * pass on a good recording and fail on a damaged one (a flipped
 * artifact byte, a truncated sphere, altered digests, a short device
 * stream, an open fleet ledger, a changed count).
 *
 * Run from the benchmark build directory (`ctest` there, or
 * `python3 qrbench/run.py --selftest`); temporary files go to
 * ./qrbench-test-tmp.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "checks.hh"
#include "ops.hh"
#include "workloads/micro.hh"

using namespace qrb;

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok)
        failures++;
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

void
spit(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

} // namespace

int
main()
{
    const std::string dir = "qrbench-test-tmp";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SpanLog log;
    log.armed = true; // exercise the span bookkeeping as well

    qr::Workload w = qr::makeRacyCounter(2, 50, false);
    BenchProgram p;
    p.name = w.name;
    p.threads = 2;
    p.program = w.program;
    p.rcfg.rnr.exactShadow = true;

    const std::string good = dir + "/good.qrec";
    RecordOut rec = recordAndSave(p, good, log);
    expect(rec.error.empty() && rec.bytes > 0, "record and save");

    VerifyOut v = verifyArtifact(good, log);
    expect(checkLint(v.report).empty(), "fresh artifact lints clean");
    AnalyzeOut a = analyzeArtifact(good, log);
    expect(a.error.empty() && a.chunks == rec.rec.metrics.chunks,
           "analyze reads every chunk");
    ReplayOut r = replayArtifact(p, good, log);
    expect(checkReplay(r).empty(), "replay matches the recording");
    ParReplayOut pr = parReplayArtifact(p, good, 4, log);
    expect(pr.error.empty() && checkParallel(r.result, pr.result).empty(),
           "4-job replay matches sequential");

    // One flipped byte in the middle of the artifact.
    std::vector<char> bytes = slurp(good);
    std::vector<char> flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x10;
    const std::string bad = dir + "/flipped.qrec";
    spit(bad, flipped);
    expect(!checkLint(verifyArtifact(bad, log).report).empty(),
           "lint check fires on a flipped byte");
    expect(!analyzeArtifact(bad, log).error.empty(),
           "analyze fails on a flipped byte");
    expect(!checkReplay(replayArtifact(p, bad, log)).empty(),
           "replay check fires on a flipped byte");

    // A truncated sphere.
    std::vector<char> cut(bytes.begin(),
                          bytes.begin() +
                              static_cast<long>(bytes.size() / 2));
    const std::string torn = dir + "/torn.qrec";
    spit(torn, cut);
    expect(!checkLint(verifyArtifact(torn, log).report).empty(),
           "lint check fires on a truncated sphere");
    expect(!checkReplay(replayArtifact(p, torn, log)).empty(),
           "replay check fires on a truncated sphere");

    // Digests that do not match the recording.
    ReplayOut diverged = r;
    diverged.recorded.memory ^= 1;
    diverged.verify =
        qr::verifyDigests(diverged.recorded, diverged.result.digests);
    expect(!checkReplay(diverged).empty(),
           "replay check fires on a digest mismatch");
    qr::ParallelReplayResult parBad = pr.result;
    parBad.replay.digests.output ^= 1;
    expect(!checkParallel(r.result, parBad).empty(),
           "parallel check fires on a digest mismatch");

    // Device events.
    expect(checkDevices(8, 8, 8, 8).empty(), "all device events injected");
    expect(!checkDevices(8, 8, 7, 8).empty(),
           "device check fires on a missed injection");

    // The fleet ledger.
    qr::ServiceCounters c;
    c.submitted = 3;
    c.saved = 2;
    c.shedQueueFull = 1;
    expect(checkLedger(c, 0).empty(), "balanced ledger closes");
    expect(!checkLedger(c, 1).empty(),
           "ledger check fires on an unaccounted sphere");
    c.shedQueueFull = 0;
    expect(!checkLedger(c, 0).empty(),
           "ledger check fires when saved + shed + lost != submitted");

    // The exact-count tripwire.
    Counts ref;
    ref.chunks = 10;
    ref.races = 2;
    Counts got = ref;
    expect(diffCounts(ref, got).empty(), "equal counts pass");
    got.races = 3;
    std::string why = diffCounts(ref, got);
    expect(why.find("races") != std::string::npos,
           "tripwire names the changed count");

    expect(!log.totals().empty() && log.totals()["op.record"].calls == 1,
           "spans recorded with self times");

    std::filesystem::remove_all(dir);
    std::printf("%s\n", failures ? "FAILED" : "all checks fire");
    return failures ? 1 : 0;
}
