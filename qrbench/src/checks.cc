#include "checks.hh"

#include <cstdio>

namespace qrb
{

using namespace qr;

std::string
checkReplay(const ReplayOut &r)
{
    if (!r.error.empty())
        return r.error;
    if (!r.result.ok)
        return "replay diverged: " + r.result.divergence;
    if (!r.verify.ok)
        return "replay digests differ from the recorded ones: " +
               r.verify.str();
    return {};
}

std::string
checkParallel(const ReplayResult &seq, const ParallelReplayResult &par)
{
    if (!par.replay.ok)
        return "parallel replay diverged: " + par.replay.divergence;
    if (!(par.replay.digests == seq.digests))
        return "parallel replay digests differ from sequential";
    if (par.replay.replayedInstrs != seq.replayedInstrs ||
        par.replay.injectedRecords != seq.injectedRecords)
        return "parallel replay counts differ from sequential";
    return {};
}

std::string
checkLint(const LintReport &r)
{
    if (r.clean())
        return {};
    return "artifact does not lint clean: " + r.findings.front().code +
           " " + r.findings.front().message;
}

std::string
checkDevices(std::uint64_t declared, std::uint64_t recorded,
             std::uint64_t seqInjected, std::uint64_t parInjected)
{
    if (recorded != declared || seqInjected != declared ||
        parInjected != declared) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "device events: declared %llu, recorded %llu, "
                      "injected %llu sequential / %llu parallel",
                      static_cast<unsigned long long>(declared),
                      static_cast<unsigned long long>(recorded),
                      static_cast<unsigned long long>(seqInjected),
                      static_cast<unsigned long long>(parInjected));
        return buf;
    }
    return {};
}

std::string
checkLedger(const ServiceCounters &c, double unaccounted)
{
    std::uint64_t shed =
        c.shedQueueFull + c.shedByteBudget + c.shedShutdown;
    std::uint64_t lost = c.saveLost + c.saveTornLeft + c.aborted;
    if (unaccounted != 0 || c.saved + shed + lost != c.submitted) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "fleet ledger open: submitted %llu, saved %llu, "
                      "shed %llu, lost %llu, unaccounted %g",
                      static_cast<unsigned long long>(c.submitted),
                      static_cast<unsigned long long>(c.saved),
                      static_cast<unsigned long long>(shed),
                      static_cast<unsigned long long>(lost),
                      unaccounted);
        return buf;
    }
    return {};
}

std::string
diffCounts(const Counts &ref, const Counts &got)
{
    struct Field
    {
        const char *name;
        std::uint64_t Counts::*member;
    };
    static const Field fields[] = {
        {"instrs", &Counts::instrs},
        {"cycles", &Counts::cycles},
        {"chunks", &Counts::chunks},
        {"conflict_ends", &Counts::conflictEnds},
        {"false_conflicts", &Counts::falseConflicts},
        {"input_records", &Counts::inputRecords},
        {"device_events", &Counts::deviceEvents},
        {"artifact_bytes", &Counts::artifactBytes},
        {"graph_nodes", &Counts::graphNodes},
        {"graph_edges", &Counts::graphEdges},
        {"modeled_seq_cycles", &Counts::modeledSeqCycles},
        {"modeled_par_cycles", &Counts::modeledParCycles},
        {"critical_path_cycles", &Counts::criticalPathCycles},
        {"analyzed_chunks", &Counts::analyzedChunks},
        {"conflict_edges", &Counts::conflictEdges},
        {"races", &Counts::races},
        {"predicted", &Counts::predicted},
    };
    for (const Field &f : fields) {
        if (ref.*f.member != got.*f.member) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "count %s changed: warm-up %llu, now %llu",
                          f.name,
                          static_cast<unsigned long long>(ref.*f.member),
                          static_cast<unsigned long long>(got.*f.member));
            return buf;
        }
    }
    return {};
}

} // namespace qrb
