/**
 * @file
 * qrbench: the repository benchmark. One process runs one named
 * workload from a seed and prints every end-to-end metric (or, with
 * --trace 1, every per-layer metric) as the last line of stdout:
 *
 *   qrbench --workload debug-replay --seed 1 --seconds 20 --trace 0
 *           [--workdir DIR]
 *
 * A run is set up three times (program generation, the baselines the
 * modeled metrics need and one warm-up pass; setup_s is the median),
 * then runs whole passes until --seconds have passed. A pass takes
 * every program of the workload, in a seeded order, through record,
 * verify, analyze, replay and 4-job replay, each program followed by
 * a closed-loop window of the record service, and ends with an
 * open-loop window. Each developer-operation rate is the median over
 * passes of that pass's throughput and the service throughput is taken
 * over all closed-loop windows of the run, so a slow spell of the host
 * touches every metric a little instead of one metric a lot. Every
 * program's stretch of a pass is scaled to a reference host speed by
 * calibration bursts timed on either side of it (calib.hh).
 *
 * Every operation's output is checked; a failed check or a count that
 * differs from the warm-up pass fails the run (exit code 1). README.md
 * explains the workloads, the metrics and the layers they belong to.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "calib.hh"
#include "checks.hh"
#include "fleet.hh"
#include "ops.hh"
#include "replay/chunk_graph.hh"
#include "sim/rng.hh"
#include "spans.hh"
#include "workloads/device.hh"
#include "workloads/micro.hh"
#include "workloads/workload.hh"

namespace qrb
{
namespace
{

using namespace qr;

constexpr int parJobs = 4;   //!< the ROADMAP's parallel-replay setting
constexpr int setupReps = 3; //!< setups per run; setup_s is the median

/*
 * Record-service load, fixed here and never derived at run time.
 * Measured on a 4-vCPU Intel Xeon VM when the benchmark was added: the
 * closed loop below (2 workers, 2 spheres outstanding per worker, so
 * always saturated) made about 180 spheres/s durable on the fleet mix,
 * and the open loop offers about 30% of that. At 40% the host's slow
 * minutes pushed utilization high enough for queueing to amplify them
 * (README.md, "Record-service load").
 */
constexpr int fleetOutstanding = 4;      //!< 2 per default worker
constexpr double fleetRatePerSec = 55.0; //!< Poisson offered load
constexpr std::uint64_t fleetRetained = 48; //!< retention budget

/** Cap on the verify/analyze repetitions of one program in a pass. */
constexpr std::uint64_t maxReps = 1024;

/** Traced passes only: direct record+save samples per pass, and
 *  runBaseline calls of the smallest micro program per pass. */
constexpr int directSamples = 6;
constexpr int microSamples = 5;

struct WorkloadDef
{
    const char *name;
    const char *why;
    std::vector<BenchProgram> (*programs)(std::uint64_t seed);
    /**
     * Service windows, in decks of every fleet sphere kind once
     * (fleet.hh), so every window carries the same mix. A closed-loop
     * window follows each program of a pass; the open-loop window
     * ends the pass.
     */
    int closedDecks; //!< closed-loop decks after each program
    int openDecks;   //!< open-loop decks per pass
    /**
     * Verify and analyze calls on small artifacts take microseconds,
     * so a pass repeats them until each program has contributed this
     * many artifact bytes / analyzed chunks: every pass's verify and
     * analyze sample then takes tens of milliseconds. The repetition
     * counts follow from the warm-up counts, so they repeat exactly.
     */
    std::uint64_t verifyTargetBytes;
    std::uint64_t analyzeTargetChunks;
};

BenchProgram
fromWorkload(Workload w, int threads, int scale)
{
    BenchProgram p;
    p.name = w.name;
    p.threads = threads;
    p.scale = scale;
    p.program = std::move(w.program);
    return p;
}

std::vector<BenchProgram>
debugReplayPrograms(std::uint64_t)
{
    std::vector<BenchProgram> v;
    v.push_back(fromWorkload(makeOcean(4, 8), 4, 8));
    v.push_back(fromWorkload(makeLu(4, 8), 4, 8));
    v.push_back(fromWorkload(makeFft(4, 8), 4, 8));
    return v;
}

std::vector<BenchProgram>
raceHuntPrograms(std::uint64_t seed)
{
    std::vector<BenchProgram> v;
    v.push_back(fromWorkload(makeRadix(4, 16), 4, 16));
    v.push_back(fromWorkload(makeBarnes(4, 16), 4, 16));
    v.push_back(fromWorkload(makeFmm(4, 16), 4, 16));

    // packet-ingest with its declared NIC armed, as bench_e12_device
    // records it; the payload seed comes from the run's seed.
    Workload w = makePacketIngest(4, 16);
    BusAgentConfig a;
    a.kind = w.device.kind;
    a.seed = mix64(seed ^ 0x4e4943);
    a.ringBase = w.device.ringBase;
    a.slotWords = w.device.slotWords;
    a.slots = w.device.slots;
    a.doorbell = w.device.doorbell;
    a.count = w.device.count;
    a.rate = w.device.rate;
    BenchProgram p = fromWorkload(std::move(w), 4, 16);
    p.rcfg.devices.push_back(a);
    p.deviceEvents = a.count;
    p.hasBaseline = false;
    v.push_back(std::move(p));

    for (BenchProgram &b : v)
        b.rcfg.rnr.exactShadow = true;
    return v;
}

/** The fleet's sphere kinds: 2-thread micro programs and the scale-1
 *  suite kernels. */
std::vector<Workload>
fleetWorkloads()
{
    std::vector<Workload> ws;
    ws.push_back(makeRacyCounter(2, 200, false));
    ws.push_back(makeProdCons(2, 100));
    ws.push_back(makeNondetMix(2, 100));
    for (const WorkloadSpec &s : splash2Suite())
        ws.push_back(s.make(2, 1));
    return ws;
}

std::vector<FleetSphere>
fleetPool()
{
    std::vector<FleetSphere> pool;
    for (Workload &w : fleetWorkloads())
        pool.push_back({w.name, 2, 1, std::move(w.program)});
    return pool;
}

std::vector<BenchProgram>
fleetPrograms(std::uint64_t)
{
    std::vector<BenchProgram> v;
    for (Workload &w : fleetWorkloads())
        v.push_back(fromWorkload(std::move(w), 2, 1));
    return v;
}

const WorkloadDef workloads[] = {
    {"debug-replay",
     "a developer reproducing a bug: long chunks, replay-bound; "
     "store-queue forwarding and the graph's analysis replay dominate",
     debugReplayPrograms, 2, 2, 1536u << 10, 24000},
    {"race-hunt",
     "a developer hunting a race: short chunks, exact shadows and a NIC; "
     "record, persistence, analyze and parallel exec do the work",
     raceHuntPrograms, 2, 2, 256u << 10, 4000},
    {"qrecd-fleet",
     "an operator running always-on recording: small spheres whose cost "
     "is machine set-up and persistence, rotated under a retention budget",
     fleetPrograms, 1, 8, 256u << 10, 4000},
};

// --- statistics ---------------------------------------------------------

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    if (frac == 0 || std::isinf(v[hi]))
        return frac == 0 ? v[lo] : v[hi];
    return v[lo] + frac * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Open-loop spheres per tail block (see tailOf). */
constexpr std::size_t tailBlock = 100;

/**
 * The tail latency of a run. The samples, in arrival order, are cut
 * into blocks of tailBlock consecutive spheres (a short last block
 * joins the one before it). A block's tail is its highest percentile
 * with at least 10 samples beyond it -- p90 of a 100-sphere block --
 * and the run's tail is the median over blocks. The host stalls for
 * seconds at a time; per-block tails keep one stall from setting the
 * tail of the whole run, while still counting every stall that lasts
 * for most of the run.
 */
struct Tail
{
    double value = 0;
    double percentile = 0; //!< of a full block
    std::size_t blocks = 0;
};

Tail
tailOf(const std::vector<double> &samples)
{
    Tail t;
    std::vector<double> tails;
    std::size_t n = samples.size();
    for (std::size_t first = 0; first < n;) {
        std::size_t last = first + tailBlock;
        if (last + tailBlock > n)
            last = n;
        std::vector<double> b(samples.begin() + static_cast<long>(first),
                              samples.begin() + static_cast<long>(last));
        std::sort(b.begin(), b.end());
        std::size_t beyond = std::min<std::size_t>(10, b.size() - 1);
        tails.push_back(b[b.size() - 1 - beyond]);
        first = last;
    }
    t.value = median(tails);
    t.blocks = tails.size();
    t.percentile = 100.0 * static_cast<double>(tailBlock - 10) /
                   static_cast<double>(tailBlock);
    return t;
}

// --- a run --------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workdir = ".bench_build/qrbench-work";
};

/** One program's warm-up results. */
struct Reference
{
    Counts counts;
    std::uint64_t baselineCycles = 0;
    std::uint64_t sphereBytes = 0;
    std::uint64_t verifyReps = 1;
    std::uint64_t analyzeReps = 1;
};

/** Host-time sums, and the work behind them, of a stretch of a pass. */
struct Times
{
    double record = 0, verify = 0, analyze = 0, replay = 0, par = 0;
    std::uint64_t recordInstrs = 0, verifyBytes = 0, analyzeChunks = 0,
                  replayInstrs = 0, parInstrs = 0;
    ClosedWindow closed;

    /** Add @p o with its seconds divided by the host factor @p host. */
    void add(const Times &o, double host)
    {
        record += o.record / host;
        verify += o.verify / host;
        analyze += o.analyze / host;
        replay += o.replay / host;
        par += o.par / host;
        closed.secs += o.closed.secs / host;
        recordInstrs += o.recordInstrs;
        verifyBytes += o.verifyBytes;
        analyzeChunks += o.analyzeChunks;
        replayInstrs += o.replayInstrs;
        parInstrs += o.parInstrs;
        closed.saved += o.closed.saved;
    }

    double devSecs() const
    {
        return record + verify + analyze + replay + par;
    }
};

/** One pass: its times as measured and at reference host speed. */
struct PassTimes
{
    Times raw;
    /** Each program's stretch divided by the host factor of the
     *  calibration bursts on either side of it (calib.hh). */
    Times scaled;
    OpenWindow open;
    double openHost = 1; //!< host factor around the open-loop window
    std::vector<double> calibSecs; //!< calibration bursts of the pass

    /** Host slowness during the pass: the median burst over the
     *  reference; 1.3 when the host runs 30% slow. */
    double host() const
    {
        return median(calibSecs) / Calibration::referenceSecs;
    }
};

/** Traced-pass extras feeding per-layer metrics. */
struct LayerSums
{
    double recordWithBaseline = 0; //!< recordProgram of baseline programs
    std::uint64_t exactConflictEnds = 0;
    std::uint64_t exactFalseConflicts = 0;
    std::vector<double> lagMs, sojournMs, submitUs, latencyMs;
    int passes = 0;
};

class Run
{
  public:
    Run(const Options &o, const WorkloadDef &d) : opt(o), def(d) {}

    int main();

  private:
    void setUp();
    void pass(bool warm, bool traced, PassTimes &t);
    void programPass(BenchProgram &p, Reference &ref, bool warm,
                     bool traced, Times &t);
    void tracedExtras(const BenchProgram &p, const RecordOut &rec,
                      Reference &ref);
    void closedWindow(int decks, Times &t);
    void openWindow(int decks, PassTimes &t);
    void fail(const std::string &what, const std::string &why);
    void printMeta(const std::vector<PassTimes> &passes);
    std::string resultJson(const std::vector<PassTimes> &passes);
    std::string layerJson();

    const Options &opt;
    const WorkloadDef &def;
    Rng orderRng{1};
    Rng directRng{1};
    SpanLog log;
    Calibration calib;

    std::vector<BenchProgram> programs;
    std::vector<FleetSphere> pool;
    std::unique_ptr<Fleet> fleet;
    std::vector<Reference> refs;
    bool haveRefs = false;
    std::vector<double> setupSecs, setupHost;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    LayerSums layer;
    std::vector<double> tracedDev, untracedDev;
};

void
Run::fail(const std::string &what, const std::string &why)
{
    failed++;
    if (failed <= 20)
        std::fprintf(stderr, "qrbench: FAILED %s: %s\n", what.c_str(),
                     why.c_str());
}

std::string
artifactPath(const std::string &workdir, const std::string &name)
{
    return workdir + "/art/" + name + ".qrec";
}

void
Run::tracedExtras(const BenchProgram &p, const RecordOut &rec,
                  Reference &ref)
{
    if (p.hasBaseline) {
        SpanScope op(log, "op.baseline");
        SpanScope s(log, "runBaseline");
        RunMetrics b = runBaseline(p.program, {}, p.rcfg);
        s.work(b.instrs);
        if (b.cycles != ref.baselineCycles)
            fail(p.name + " baseline", "baseline cycles changed");
    }
    {
        SpanScope op(log, "op.graph");
        SpanScope s(log, "buildChunkGraph");
        ChunkGraph g = buildChunkGraph(p.program, rec.rec.logs);
        s.work(rec.rec.metrics.instrs);
        if (!g.ok || g.edges != ref.counts.graphEdges)
            fail(p.name + " graph", "standalone graph differs");
    }
    if (!p.rcfg.rnr.exactShadow) {
        // The Bloom false-conflict audit needs exact shadow sets; a
        // shadowless workload gets them from one extra recording.
        SpanScope op(log, "op.exact_record");
        RecorderConfig exact = p.rcfg;
        exact.rnr.exactShadow = true;
        SpanScope s(log, "recordProgram.exact");
        RecordResult r = recordProgram(p.program, {}, exact);
        s.work(r.metrics.instrs);
        std::uint64_t ends = 0;
        for (int i = 0; i < numChunkReasons; ++i)
            if (isConflictReason(static_cast<ChunkReason>(i)))
                ends += r.metrics.reasonCounts[i];
        layer.exactConflictEnds += ends;
        layer.exactFalseConflicts += r.metrics.falseConflicts;
    } else {
        layer.exactConflictEnds += ref.counts.conflictEnds;
        layer.exactFalseConflicts += ref.counts.falseConflicts;
    }
}

void
Run::programPass(BenchProgram &p, Reference &ref, bool warm, bool traced,
                 Times &t)
{
    const std::string path = artifactPath(opt.workdir, p.name);
    const std::string what = p.name;
    Counts c;

    log.nextOp();
    attempted++;
    RecordOut rec = recordAndSave(p, path, log);
    t.record += rec.secs;
    t.recordInstrs += rec.rec.metrics.instrs;
    if (!rec.error.empty())
        fail(what + " record", rec.error);
    const RunMetrics &m = rec.rec.metrics;
    c.instrs = m.instrs;
    c.cycles = m.cycles;
    c.chunks = m.chunks;
    for (int i = 0; i < numChunkReasons; ++i)
        if (isConflictReason(static_cast<ChunkReason>(i)))
            c.conflictEnds += m.reasonCounts[i];
    c.falseConflicts = m.falseConflicts;
    c.inputRecords = m.inputRecords;
    c.deviceEvents = m.deviceEvents;
    c.artifactBytes = rec.bytes;
    if (traced && p.hasBaseline)
        layer.recordWithBaseline += rec.recordSecs;

    std::uint64_t vreps = warm ? 1 : ref.verifyReps;
    for (std::uint64_t i = 0; i < vreps; ++i) {
        log.nextOp();
        attempted++;
        VerifyOut v = verifyArtifact(path, log);
        t.verify += v.secs;
        t.verifyBytes += v.bytes;
        if (std::string e = checkLint(v.report); !e.empty())
            fail(what + " verify", e);
    }

    std::uint64_t areps = warm ? 1 : ref.analyzeReps;
    for (std::uint64_t i = 0; i < areps; ++i) {
        log.nextOp();
        attempted++;
        AnalyzeOut a = analyzeArtifact(path, log);
        t.analyze += a.secs;
        t.analyzeChunks += a.chunks;
        if (!a.error.empty())
            fail(what + " analyze", a.error);
        c.analyzedChunks = a.chunks;
        c.conflictEdges = a.conflictEdges;
        c.races = a.races;
        c.predicted = a.predicted;
    }

    log.nextOp();
    attempted++;
    ReplayOut r = replayArtifact(p, path, log);
    t.replay += r.secs;
    t.replayInstrs += c.instrs;
    if (std::string e = checkReplay(r); !e.empty())
        fail(what + " replay", e);

    log.nextOp();
    attempted++;
    ParReplayOut pr = parReplayArtifact(p, path, parJobs, log);
    t.par += pr.secs;
    t.parInstrs += c.instrs;
    std::string perr = pr.error.empty()
                           ? checkParallel(r.result, pr.result)
                           : pr.error;
    if (!perr.empty())
        fail(what + " parallel replay", perr);
    c.graphEdges = pr.result.graphEdges;
    c.graphNodes = pr.result.graphNodes;
    c.modeledSeqCycles = pr.result.speed.modeledSequentialCycles;
    c.modeledParCycles = pr.result.speed.modeledParallelCycles;
    c.criticalPathCycles = pr.result.speed.criticalPathCycles;

    if (p.deviceEvents) {
        std::string e = checkDevices(p.deviceEvents, m.deviceEvents,
                                     r.result.injectedDeviceEvents,
                                     pr.result.replay.injectedDeviceEvents);
        if (!e.empty())
            fail(what + " devices", e);
    }

    if (!haveRefs) {
        ref.counts = c;
        ref.sphereBytes = rec.rec.logs.serialize().size();
        ref.verifyReps = std::clamp<std::uint64_t>(
            (def.verifyTargetBytes + c.artifactBytes - 1) /
                std::max<std::uint64_t>(c.artifactBytes, 1),
            1, maxReps);
        ref.analyzeReps = std::clamp<std::uint64_t>(
            (def.analyzeTargetChunks + c.analyzedChunks - 1) /
                std::max<std::uint64_t>(c.analyzedChunks, 1),
            1, maxReps);
    } else if (std::string e = diffCounts(ref.counts, c); !e.empty()) {
        fail(what + " tripwire", e);
    }

    if (traced)
        tracedExtras(p, rec, ref);
}

void
Run::closedWindow(int decks, Times &t)
{
    if (decks == 0)
        return;
    int closed = static_cast<int>(pool.size()) * decks;
    std::uint64_t lost = 0;
    attempted += static_cast<std::uint64_t>(closed);
    ClosedWindow w = fleet->closedLoop(closed, fleetOutstanding, log, lost);
    t.closed.saved += w.saved;
    t.closed.secs += w.secs;
    for (std::uint64_t i = 0; i < lost; ++i)
        fail("fleet sphere", "shed or lost by the record service");
}

void
Run::openWindow(int decks, PassTimes &t)
{
    int open = static_cast<int>(pool.size()) * decks;
    attempted += static_cast<std::uint64_t>(open);
    fleet->openLoop(open, fleetRatePerSec, log, t.open);
    for (std::uint64_t i = 0; i < t.open.failed; ++i)
        fail("fleet sphere", "shed or lost by the record service");
}

void
Run::pass(bool warm, bool traced, PassTimes &t)
{
    log.armed = traced;
    SpanScope ps(log, "pass");

    // The program order within each pass is drawn from the seed.
    std::vector<std::size_t> order(programs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[orderRng.below(i)]);
    // A calibration burst before and after each program's stretch
    // (its operations and its closed-loop window) and the open-loop
    // window: the host's speed moves within a pass, so each stretch
    // is scaled by the bursts on either side of it.
    auto calibrate = [&] {
        t.calibSecs.push_back(calib.burst());
        return t.calibSecs.back();
    };
    auto hostAround = [](double before, double after) {
        return (before + after) / 2 / Calibration::referenceSecs;
    };
    double before = calibrate();
    for (std::size_t k = 0; k < order.size(); ++k) {
        Times stretch;
        programPass(programs[order[k]], refs[order[k]], warm, traced,
                    stretch);
        // A warm-up pass only starts the service: one deck each way.
        closedWindow(warm ? (k == 0 ? 1 : 0) : def.closedDecks, stretch);
        double after = calibrate();
        t.raw.add(stretch, 1.0);
        t.scaled.add(stretch, hostAround(before, after));
        before = after;
    }
    openWindow(warm ? 1 : def.openDecks, t);
    t.openHost = hostAround(before, calibrate());

    if (traced) {
        layer.passes++;
        layer.lagMs.insert(layer.lagMs.end(), t.open.lagMs.begin(),
                           t.open.lagMs.end());
        layer.latencyMs.insert(layer.latencyMs.end(),
                               t.open.latencyMs.begin(),
                               t.open.latencyMs.end());
        layer.sojournMs.insert(layer.sojournMs.end(),
                               t.open.sojournMs.begin(),
                               t.open.sojournMs.end());
        layer.submitUs.insert(layer.submitUs.end(),
                              t.open.submitUs.begin(),
                              t.open.submitUs.end());
        // The same spheres recorded and saved outside the service.
        for (int i = 0; i < directSamples; ++i) {
            const FleetSphere &f = pool[directRng.below(pool.size())];
            SpanScope s(log, "direct.recordAndSave");
            RecordResult r = recordProgram(f.program);
            s.work(r.metrics.instrs);
            SphereArtifact art;
            art.workload = f.name;
            art.threads = f.threads;
            art.scale = f.scale;
            art.digests = r.metrics.digests;
            art.logs = std::move(r.logs);
            attempted++;
            SegmentedWriteResult w =
                saveArtifact(art, artifactPath(opt.workdir, "direct"));
            if (!w)
                fail(f.name + " direct save", w.error);
        }
        // Fixed cost of building a machine: the smallest program.
        Workload micro = makeRacyCounter(2, 1, false);
        for (int i = 0; i < microSamples; ++i) {
            SpanScope s(log, "runBaseline.micro");
            s.work(runBaseline(micro.program).instrs);
        }
    }
    log.armed = false;
}

void
Run::setUp()
{
    orderRng = Rng(mix64(opt.seed ^ 0x6f72646572));
    directRng = Rng(mix64(opt.seed ^ 0x646972656374));

    auto t0 = Clock::now();
    programs = def.programs(opt.seed);
    if (!haveRefs)
        refs.assign(programs.size(), Reference{});
    for (std::size_t i = 0; i < programs.size(); ++i) {
        if (!programs[i].hasBaseline)
            continue;
        RunMetrics b = runBaseline(programs[i].program, {},
                                   programs[i].rcfg);
        if (!haveRefs)
            refs[i].baselineCycles = b.cycles;
        else if (b.cycles != refs[i].baselineCycles)
            fail(programs[i].name + " baseline",
                 "baseline cycles differ between setups");
    }
    PassTimes warm;
    pass(true, false, warm);
    haveRefs = true;
    setupSecs.push_back(secondsSince(t0));
    setupHost.push_back(warm.host());
}

/** Metric name -> (value, unit), in print order. */
using MetricList = std::vector<std::pair<std::string,
                                         std::pair<double, std::string>>>;

std::string
toJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
       const MetricList &metrics)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        double v = metrics[i].second.first;
        // JSON has no infinity: a lost sphere's latency is clamped.
        if (!std::isfinite(v))
            v = 1e12;
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        s += (i ? ", \"" : "\"") + metrics[i].first +
             "\": {\"value\": " + buf + ", \"unit\": \"" +
             metrics[i].second.second + "\"}";
    }
    return s + "}}";
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

std::string
Run::resultJson(const std::vector<PassTimes> &passes)
{
    // Every host-time sample is taken at reference host speed: each
    // stretch of a pass is divided by the host factor around it, and
    // open-loop latencies by the factor around their window
    // (calib.hh). The "as measured" line keeps the raw figures.
    struct Figures
    {
        MetricList m;
        Tail tail;
        std::size_t closedSamples = 0, latSamples = 0;
    };
    auto figures = [&](bool scaled) {
        auto timesOf = [&](const PassTimes &p) -> const Times & {
            return scaled ? p.scaled : p.raw;
        };
        auto rate = [&](double Times::*secs, std::uint64_t Times::*work,
                        double scale) {
            std::vector<double> v;
            for (const PassTimes &p : passes) {
                const Times &t = timesOf(p);
                v.push_back(ratio(static_cast<double>(t.*work) * scale,
                                  t.*secs));
            }
            return median(v);
        };
        // One closed-loop window's throughput moves by a third from
        // the next on a shared host, in a fast and a slow cluster, so
        // a median of windows jumps between the two. Throughput is
        // taken over every window of the run together instead.
        double saved = 0, closedSecs = 0;
        std::vector<double> lat, setup;
        for (const PassTimes &p : passes) {
            saved += static_cast<double>(timesOf(p).closed.saved);
            closedSecs += timesOf(p).closed.secs;
            for (double l : p.open.latencyMs)
                lat.push_back(l / (scaled ? p.openHost : 1.0));
        }
        for (std::size_t i = 0; i < setupSecs.size(); ++i)
            setup.push_back(setupSecs[i] / (scaled ? setupHost[i] : 1.0));
        Figures f;
        f.tail = tailOf(lat);
        f.closedSamples = static_cast<std::size_t>(saved);
        f.latSamples = lat.size();
        f.m = {
            {"setup_s", {median(setup), "s"}},
            {"record_mips",
             {rate(&Times::record, &Times::recordInstrs, 1e-6),
              "Minstr/s"}},
            {"replay_mips",
             {rate(&Times::replay, &Times::replayInstrs, 1e-6),
              "Minstr/s"}},
            {"par_replay_mips",
             {rate(&Times::par, &Times::parInstrs, 1e-6),
              "Minstr/s"}},
            {"verify_mb_per_s",
             {rate(&Times::verify, &Times::verifyBytes, 1e-6),
              "MB/s"}},
            {"analyze_kchunks_per_s",
             {rate(&Times::analyze, &Times::analyzeChunks, 1e-3),
              "kchunk/s"}},
            {"service_sps", {ratio(saved, closedSecs), "sphere/s"}},
            {"service_p50_ms", {median(lat), "ms"}},
        };
        return f;
    };
    Figures measured = figures(false);
    Figures f = figures(true);
    MetricList &m = f.m;
    std::vector<double> hosts;
    for (const PassTimes &p : passes)
        hosts.push_back(p.host());
    std::printf("host factor: median %.4f over %zu passes (range "
                "%.3f-%.3f); as measured:",
                median(hosts), hosts.size(),
                *std::min_element(hosts.begin(), hosts.end()),
                *std::max_element(hosts.begin(), hosts.end()));
    for (const auto &[name, vu] : measured.m)
        std::printf(" %s=%.6g", name.c_str(), vu.first);
    std::printf("\n");
    {
        std::vector<double> lat;
        for (const PassTimes &p : passes)
            for (double l : p.open.latencyMs)
                lat.push_back(l / p.openHost);
        std::printf("open-loop latency over the whole run, at reference "
                    "host speed: p90 %.3f ms, p95 %.3f ms, p99 %.3f ms\n",
                    quantile(lat, 0.9), quantile(lat, 0.95),
                    quantile(lat, 0.99));
    }

    std::uint64_t baseCycles = 0, recCycles = 0, sphereBytes = 0,
                  instrs = 0, seqCycles = 0, parCycles = 0;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const Reference &r = refs[i];
        if (programs[i].hasBaseline) {
            baseCycles += r.baselineCycles;
            recCycles += r.counts.cycles;
        }
        sphereBytes += r.sphereBytes;
        instrs += r.counts.instrs;
        seqCycles += r.counts.modeledSeqCycles;
        parCycles += r.counts.modeledParCycles;
    }

    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);

    MetricList fixed = {
        {"peak_rss_mb",
         {static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"}},
        {"modeled_overhead_pct",
         {100.0 * (ratio(static_cast<double>(recCycles),
                         static_cast<double>(baseCycles)) -
                   1.0),
          "%"}},
        {"log_bytes_per_kinstr",
         {1000.0 * ratio(static_cast<double>(sphereBytes),
                         static_cast<double>(instrs)),
          "B/kinstr"}},
        {"modeled_par_speedup",
         {ratio(static_cast<double>(seqCycles),
                static_cast<double>(parCycles)),
          "x"}},
    };
    m.insert(m.end(), fixed.begin(), fixed.end());
    std::printf("samples: %zu passes behind each rate; %zu closed-loop "
                "spheres behind service_sps; %zu setups behind setup_s; "
                "%zu open-loop spheres behind service_p50_ms; modeled "
                "metrics from the warm-up counts, which every pass "
                "repeated exactly\n",
                passes.size(), f.closedSamples, setupSecs.size(),
                f.latSamples);
    // Printed, not gated: on the shared VM the tail moved 25-36% between
    // runs of identical code (README.md, "Why the tail is not gated").
    std::printf("service tail: %.3f ms at reference host speed, %.3f ms "
                "as measured; median of %zu block tails (p%.0f of %zu "
                "open-loop spheres, 10 beyond)\n",
                f.tail.value, measured.tail.value, f.tail.blocks,
                f.tail.percentile, tailBlock);
    return toJson(failed == 0, attempted, failed, m);
}

std::string
Run::layerJson()
{
    std::map<std::string, SpanTotals> tot = log.totals();
    auto self = [&](const char *n) { return tot[n].selfSecs; };
    auto rateOf = [&](const char *n, double scale) {
        return ratio(static_cast<double>(tot[n].work) * scale,
                     tot[n].selfSecs);
    };
    auto medOf = [&](const char *n, double scale) {
        return median(tot[n].selfSamples) * scale;
    };
    double passes = std::max(layer.passes, 1);

    std::uint64_t chunks = 0, instrs = 0, ends = 0, inputs = 0,
                  devices = 0, edges = 0, nodes = 0, seqCycles = 0,
                  critical = 0, conflictEdges = 0, races = 0,
                  predicted = 0;
    for (const Reference &r : refs) {
        chunks += r.counts.chunks;
        instrs += r.counts.instrs;
        ends += r.counts.conflictEnds;
        inputs += r.counts.inputRecords;
        devices += r.counts.deviceEvents;
        edges += r.counts.graphEdges;
        nodes += r.counts.graphNodes;
        seqCycles += r.counts.modeledSeqCycles;
        critical += r.counts.criticalPathCycles;
        conflictEdges += r.counts.conflictEdges;
        races += r.counts.races;
        predicted += r.counts.predicted;
    }
    ServiceCounters sc = fleet->counters();
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };

    MetricList m = {
        {"core.machine_fixed_ms", {medOf("runBaseline.micro", 1e3), "ms"}},
        {"sim.baseline_mips", {rateOf("runBaseline", 1e-6), "Minstr/s"}},
        {"rnr.record_overhead_pct",
         {100.0 * (ratio(layer.recordWithBaseline, self("runBaseline")) -
                   1.0),
          "%"}},
        {"rnr.chunks_per_kinstr", {1000.0 * ratio(d(chunks), d(instrs)),
                                   "count"}},
        {"rnr.conflict_end_frac", {ratio(d(ends), d(chunks)), "frac"}},
        {"rnr.false_conflict_frac",
         {ratio(d(layer.exactFalseConflicts), d(layer.exactConflictEnds)),
          "frac"}},
        {"capo.input_records_per_kinstr",
         {1000.0 * ratio(d(inputs), d(instrs)), "count"}},
        {"bus.events", {d(devices), "count"}},
        {"capo.save_ms", {medOf("saveArtifact", 1e3), "ms"}},
        {"capo.save_mb_per_s", {rateOf("saveArtifact", 1e-6), "MB/s"}},
        {"capo.load_mb_per_s", {rateOf("loadArtifact", 1e-6), "MB/s"}},
        {"replay.seq_mips", {rateOf("replaySphere", 1e-6), "Minstr/s"}},
        {"replay.graph_mips",
         {rateOf("buildChunkGraph", 1e-6), "Minstr/s"}},
        {"replay.par_exec_s",
         {(self("replaySphereParallel") - self("buildChunkGraph")) /
              passes,
          "s"}},
        {"replay.edges_per_chunk", {ratio(d(edges), d(nodes)), "count"}},
        {"replay.available_parallelism",
         {ratio(d(seqCycles), d(critical)), "x"}},
        {"analyze.scan_s", {self("SphereCursor") / passes, "s"}},
        {"analyze.race_s", {self("analyzeSphereStreaming") / passes, "s"}},
        {"analyze.predict_s", {self("predictRaces") / passes, "s"}},
        {"analyze.lint_mb_per_s",
         {rateOf("lintSphereBytes", 1e-6), "MB/s"}},
        {"analyze.conflict_edges", {d(conflictEdges), "count"}},
        {"analyze.races", {d(races), "count"}},
        {"analyze.predicted", {d(predicted), "count"}},
        {"service.submit_us", {median(layer.submitUs), "us"}},
        {"service.direct_ms", {medOf("direct.recordAndSave", 1e3), "ms"}},
        {"service.sojourn_ms", {median(layer.sojournMs), "ms"}},
        {"service.tail_ms", {tailOf(layer.latencyMs).value, "ms"}},
        {"service.generator_lag_ms",
         {quantile(layer.lagMs, 0.99), "ms"}},
        {"service.evicted", {d(sc.retentionEvicted), "count"}},
        {"service.shed",
         {d(sc.shedQueueFull + sc.shedByteBudget + sc.shedShutdown),
          "count"}},
        {"service.save_retries", {d(sc.saveRetries), "count"}},
        {"service.compact_useful_frac",
         {ratio(d(sc.retentionCompacted),
                d(sc.retentionCompacted + sc.retentionCompactFailures)),
          "frac"}},
    };

    double tr = median(tracedDev), un = median(untracedDev);
    std::printf("tracing overhead: traced %.4f s - untraced %.4f s = "
                "%+.4f s per pass (%+.2f%%), medians of %zu and %zu "
                "passes; %zu spans recorded\n",
                tr, un, tr - un, 100.0 * ratio(tr - un, un),
                tracedDev.size(), untracedDev.size(),
                log.spans().size());
    return toJson(failed == 0, attempted, failed, m);
}

void
Run::printMeta(const std::vector<PassTimes> &passes)
{
    std::printf("workload: %s (%s)\n", def.name, def.why);
    std::printf("seed: %llu  seconds: %g  trace: %d  nproc: %ld  "
                "compiler: g++ %s  build: %s\n",
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
                __VERSION__, QRB_BUILD_TYPE);
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const Reference &r = refs[i];
        std::printf("program: %-12s threads=%d scale=%d instrs=%llu "
                    "chunks=%llu artifact=%lluB verify-reps=%llu "
                    "analyze-reps=%llu%s\n",
                    programs[i].name.c_str(), programs[i].threads,
                    programs[i].scale,
                    static_cast<unsigned long long>(r.counts.instrs),
                    static_cast<unsigned long long>(r.counts.chunks),
                    static_cast<unsigned long long>(r.counts.artifactBytes),
                    static_cast<unsigned long long>(r.verifyReps),
                    static_cast<unsigned long long>(r.analyzeReps),
                    programs[i].rcfg.rnr.exactShadow ? " exact-shadow"
                                                     : "");
    }
    std::printf("fleet: %zu sphere kinds (2 threads, scale 1), 2 workers, "
                "closed loop %d outstanding x %d after each program, "
                "open loop %d per pass at %.0f/s, retention %llu "
                "artifacts\n",
                pool.size(), fleetOutstanding,
                def.closedDecks * static_cast<int>(pool.size()),
                def.openDecks * static_cast<int>(pool.size()),
                fleetRatePerSec,
                static_cast<unsigned long long>(fleetRetained));
    std::printf("setup: %zu runs, %s s\n", setupSecs.size(), [&] {
        std::string s;
        for (double v : setupSecs)
            s += (s.empty() ? "" : " ") + std::to_string(v);
        return s;
    }().c_str());
    std::printf("passes: %zu measured\n", passes.size());
    auto line = [](const Times &t, double p50) {
        std::printf("record %.3f s, verify %.3f s, analyze %.3f s, "
                    "replay %.3f s, par %.3f s, %.1f sphere/s, open-loop "
                    "p50 %.2f ms",
                    t.record, t.verify, t.analyze, t.replay, t.par,
                    ratio(static_cast<double>(t.closed.saved),
                          t.closed.secs),
                    p50);
    };
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const PassTimes &p = passes[i];
        double p50 = median(p.open.latencyMs);
        std::printf("pass %zu: ", i);
        line(p.raw, p50);
        std::printf(", host factor %.3f\n  at reference speed: ",
                    p.host());
        line(p.scaled, p50 / p.openHost);
        std::printf("\n");
    }
}

int
Run::main()
{
    std::filesystem::remove_all(opt.workdir);
    std::filesystem::create_directories(opt.workdir + "/art");

    // One service for the whole run: its worker threads, and the
    // allocator arenas they fill, are created once, so the peak
    // resident set does not depend on how often the run set up.
    pool = fleetPool();
    fleet = std::make_unique<Fleet>(opt.workdir + "/store", pool,
                                    mix64(opt.seed), fleetRetained);
    for (int rep = 0; rep < setupReps; ++rep)
        setUp();

    std::vector<PassTimes> passes;
    auto start = Clock::now();
    for (int i = 0; passes.empty() || secondsSince(start) < opt.seconds ||
                    (opt.trace && tracedDev.empty());
         ++i) {
        // Traced runs alternate untraced and traced passes, so the
        // tracing overhead is measured inside one run.
        bool traced = opt.trace && (i % 2 == 1);
        PassTimes t;
        pass(false, traced, t);
        (traced ? tracedDev : untracedDev).push_back(t.raw.devSecs());
        if (!traced)
            passes.push_back(std::move(t));
    }
    if (std::string e = fleet->finish(); !e.empty())
        fail("fleet ledger", e);

    printMeta(passes);
    std::string json = opt.trace ? layerJson() : resultJson(passes);
    if (opt.trace) {
        std::filesystem::path spans =
            std::filesystem::path(opt.workdir).parent_path() /
            ("spans-" + opt.workload + "-seed" + std::to_string(opt.seed) +
             ".json");
        if (log.writeChrome(spans.string()))
            std::printf("spans: %s\n", spans.string().c_str());
    }
    fleet.reset();
    std::filesystem::remove_all(opt.workdir);
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return failed ? 1 : 0;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "qrbench: %s\nusage: qrbench --workload "
                 "debug-replay|race-hunt|qrecd-fleet --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR]\n",
                 msg);
    return 2;
}

} // namespace
} // namespace qrb

int
main(int argc, char **argv)
{
    using namespace qrb;
    Options opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            opt.trace = v == "1";
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
        } else if (a == "--workdir") {
            opt.workdir = v;
        } else {
            return usage(("unknown option " + a).c_str());
        }
        if (end && *end)
            return usage(("bad number for " + a).c_str());
    }
    if (!haveWorkload)
        return usage("--workload is required");
    if (!(opt.seconds > 0) || opt.seconds > 600)
        return usage("--seconds must be in (0, 600]");
    for (const WorkloadDef &d : workloads) {
        if (opt.workload == d.name) {
            Run run(opt, d);
            return run.main();
        }
    }
    return usage(("unknown workload " + opt.workload).c_str());
}
