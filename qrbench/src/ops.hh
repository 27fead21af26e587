/**
 * @file
 * The benchmark's operations: each one calls the quickrec public entry
 * points the way a qrec user waits on them, times the whole call with
 * a steady clock, and wraps every library call in a span.
 *
 *   record   recordProgram + saveArtifact             (qrec record)
 *   verify   read + QSG1/QRC1 unwrap + lintSphereBytes (qrec verify)
 *   analyze  MappedSphereFile + SphereCursor + analyzeSphereStreaming
 *            + predictRaces                     (qrec analyze --predict)
 *   replay   loadArtifact + replaySphere + verifyDigests (qrec replay)
 *   par      loadArtifact + replaySphereParallel  (--replay-jobs 4)
 */

#ifndef QRB_OPS_HH
#define QRB_OPS_HH

#include <cstdint>
#include <string>

#include "analyze/verify.hh"
#include "core/artifact.hh"
#include "core/session.hh"
#include "spans.hh"

namespace qrb
{

/** One program of a workload, with the recorder settings it needs. */
struct BenchProgram
{
    std::string name;
    int threads = 4;
    int scale = 1;
    qr::Program program;
    qr::RecorderConfig rcfg;
    /** Completions the armed bus agent must deliver (0: no agent). */
    std::uint64_t deviceEvents = 0;
    /** False for device programs: an unrecorded machine has no bus
     *  agent, so the guest would wait on its doorbell forever. */
    bool hasBaseline = true;
};

/**
 * Counts that must repeat exactly for a program in every pass of every
 * run of one seed. A difference means the workload changed, which the
 * run reports as a failure rather than as a speed change.
 */
struct Counts
{
    std::uint64_t instrs = 0;
    std::uint64_t cycles = 0;        //!< simulated, recorded run
    std::uint64_t chunks = 0;
    std::uint64_t conflictEnds = 0;  //!< conflict-terminated chunks
    std::uint64_t falseConflicts = 0; //!< exact-shadow runs only
    std::uint64_t inputRecords = 0;
    std::uint64_t deviceEvents = 0;
    std::uint64_t artifactBytes = 0;
    std::uint64_t graphNodes = 0;
    std::uint64_t graphEdges = 0;
    std::uint64_t modeledSeqCycles = 0; //!< replay schedule, 1 job
    std::uint64_t modeledParCycles = 0; //!< replay schedule, 4 jobs
    std::uint64_t criticalPathCycles = 0;
    std::uint64_t analyzedChunks = 0;
    std::uint64_t conflictEdges = 0;
    std::uint64_t races = 0;
    std::uint64_t predicted = 0;

    bool operator==(const Counts &o) const = default;
};

struct RecordOut
{
    qr::RecordResult rec;
    std::uint64_t bytes = 0;
    double secs = 0;       //!< record + save
    double recordSecs = 0; //!< recordProgram alone
    std::string error;
};

/** Record @p p and save it as a .qrec artifact at @p path. */
RecordOut recordAndSave(const BenchProgram &p, const std::string &path,
                        SpanLog &log);

struct VerifyOut
{
    qr::LintReport report;
    std::uint64_t bytes = 0; //!< artifact file bytes
    double secs = 0;
};

/** `qrec verify`'s path over one artifact file. */
VerifyOut verifyArtifact(const std::string &path, SpanLog &log);

struct AnalyzeOut
{
    std::string error; //!< empty on success
    std::uint64_t chunks = 0;
    std::uint64_t conflictEdges = 0;
    std::uint64_t races = 0; //!< witnessed data + device races
    std::uint64_t predicted = 0;
    double secs = 0;
};

/** `qrec analyze --predict`'s path over one artifact file. */
AnalyzeOut analyzeArtifact(const std::string &path, SpanLog &log);

struct ReplayOut
{
    std::string error; //!< load failure; empty otherwise
    qr::Digests recorded;
    qr::ReplayResult result;
    qr::VerifyReport verify;
    double secs = 0;
};

/** Load @p path and replay it sequentially, checking digests. */
ReplayOut replayArtifact(const BenchProgram &p, const std::string &path,
                         SpanLog &log);

struct ParReplayOut
{
    std::string error;
    qr::ParallelReplayResult result;
    double secs = 0;
};

/** Load @p path and replay it on @p jobs workers (graph included). */
ParReplayOut parReplayArtifact(const BenchProgram &p,
                               const std::string &path, int jobs,
                               SpanLog &log);

} // namespace qrb

#endif // QRB_OPS_HH
