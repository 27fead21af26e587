#include "ops.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "analyze/predict.hh"
#include "analyze/race_analyzer.hh"
#include "capo/log_store.hh"
#include "replay/verifier.hh"
#include "sim/logging.hh"

namespace qrb
{

using namespace qr;

RecordOut
recordAndSave(const BenchProgram &p, const std::string &path,
              SpanLog &log)
{
    RecordOut out;
    SpanScope op(log, "op.record");
    auto t0 = Clock::now();
    {
        SpanScope s(log, "recordProgram");
        out.rec = recordProgram(p.program, {}, p.rcfg);
        s.work(out.rec.metrics.instrs);
    }
    out.recordSecs = secondsSince(t0);
    SphereArtifact art;
    art.workload = p.name;
    art.threads = p.threads;
    art.scale = p.scale;
    art.digests = out.rec.metrics.digests;
    art.logs = out.rec.logs;
    {
        SpanScope s(log, "saveArtifact");
        SegmentedWriteResult w = saveArtifact(art, path);
        if (!w)
            out.error = "save failed: " + w.error;
        out.bytes = w.bytes;
        s.work(w.bytes);
    }
    out.secs = secondsSince(t0);
    return out;
}

namespace
{

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    std::uintmax_t n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::vector<std::uint8_t> raw;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return raw;
    std::uint8_t buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        raw.insert(raw.end(), buf, buf + n);
    std::fclose(f);
    return raw;
}

/**
 * The sphere stream inside a sealed QRC1 container, as `qrec verify`
 * unwraps it; empty when the bytes are not one (the linter then sees
 * the raw bytes and reports what is wrong with them).
 */
std::vector<std::uint8_t>
unwrapSphere(const std::vector<std::uint8_t> &raw)
{
    if (!isSegmented(raw))
        return {};
    SegmentedReadResult seg = readSegmented(raw);
    if (!seg.ok || !seg.sealed || seg.payload.size() < 4 ||
        std::memcmp(seg.payload.data(), "QRC1", 4) != 0)
        return {};
    try {
        std::size_t pos = 4;
        parseArtifactMeta(seg.payload, pos);
        std::uint64_t n = getVarint(seg.payload, pos);
        if (n > seg.payload.size() - pos)
            return {};
        auto first = seg.payload.begin() + static_cast<long>(pos);
        return {first, first + static_cast<long>(n)};
    } catch (const ParseError &) {
        return {};
    }
}

} // namespace

VerifyOut
verifyArtifact(const std::string &path, SpanLog &log)
{
    VerifyOut out;
    SpanScope op(log, "op.verify");
    auto t0 = Clock::now();
    std::vector<std::uint8_t> raw;
    {
        SpanScope s(log, "readArtifactFile");
        raw = readFile(path);
        s.work(raw.size());
    }
    out.bytes = raw.size();
    std::vector<std::uint8_t> sphere;
    {
        SpanScope s(log, "unwrapContainer");
        sphere = unwrapSphere(raw);
        s.work(raw.size());
    }
    {
        SpanScope s(log, "lintSphereBytes");
        bool wrapped = !sphere.empty();
        out.report = lintSphereBytes(wrapped ? sphere : raw, path);
        if (wrapped) {
            out.report.container = true;
            out.report.sealed = true;
        }
        s.work(raw.size());
    }
    out.secs = secondsSince(t0);
    return out;
}

AnalyzeOut
analyzeArtifact(const std::string &path, SpanLog &log)
{
    AnalyzeOut out;
    SpanScope op(log, "op.analyze");
    auto t0 = Clock::now();
    MappedSphereFile map;
    {
        SpanScope s(log, "MappedSphereFile");
        bool opened = map.open(path);
        if (!opened || !map.canStream()) {
            out.error = "cannot stream '" + path + "': " + map.error();
            return out;
        }
        std::string why = map.verifyAll();
        if (!why.empty()) {
            out.error = "'" + path + "' is corrupt: " + why;
            return out;
        }
        s.work(map.fileBytes());
    }
    try {
        PayloadView pv = map.payload();
        if (pv.size() < 4 || pv[0] != 'Q' || pv[1] != 'R' ||
            pv[2] != 'C' || pv[3] != '1')
            parseFail("not a qrec container");
        std::size_t pos = 4;
        parseArtifactMeta(pv, pos);
        std::uint64_t n = getVarintFrom(pv, pos);
        if (n > pv.size() - pos)
            parseFail("container truncated");
        PayloadView sphere =
            pv.subview(pos, static_cast<std::size_t>(n));

        StreamOptions opt;
        opt.keepConflicts = true; // predictRaces re-judges the list
        RaceReport rep;
        {
            SpanScope s(log, "SphereCursor");
            SphereCursor cur{sphere};
            s.work(cur.totalChunks());
            SpanScope a(log, "analyzeSphereStreaming");
            rep = analyzeSphereStreaming(cur, opt);
            a.work(rep.nChunks);
        }
        PredictReport pred;
        {
            SpanScope s(log, "predictRaces");
            SphereCursor pcur{sphere};
            pred = predictRaces(pcur, rep);
            s.work(rep.nChunks);
        }
        out.chunks = rep.nChunks;
        out.conflictEdges = rep.conflictEdges;
        out.races = rep.races.size() + rep.deviceRaces.size();
        out.predicted = pred.predicted;
    } catch (const ParseError &e) {
        out.error = "'" + path + "' is corrupt: " + e.what();
    }
    out.secs = secondsSince(t0);
    return out;
}

ReplayOut
replayArtifact(const BenchProgram &p, const std::string &path,
               SpanLog &log)
{
    ReplayOut out;
    SpanScope op(log, "op.replay");
    auto t0 = Clock::now();
    ArtifactLoadResult loaded;
    {
        SpanScope s(log, "loadArtifact");
        loaded = loadArtifact(path);
        s.work(log.armed ? fileBytes(path) : 0);
    }
    if (!loaded) {
        out.error = "cannot load '" + path + "': " + loaded.detail;
        return out;
    }
    out.recorded = loaded.artifact.digests;
    {
        SpanScope s(log, "replaySphere");
        out.result = replaySphere(p.program, loaded.artifact.logs);
        s.work(out.result.replayedInstrs);
    }
    {
        SpanScope s(log, "verifyDigests");
        out.verify = verifyDigests(out.recorded, out.result.digests);
    }
    out.secs = secondsSince(t0);
    return out;
}

ParReplayOut
parReplayArtifact(const BenchProgram &p, const std::string &path,
                  int jobs, SpanLog &log)
{
    ParReplayOut out;
    SpanScope op(log, "op.par_replay");
    auto t0 = Clock::now();
    ArtifactLoadResult loaded;
    {
        SpanScope s(log, "loadArtifact");
        loaded = loadArtifact(path);
        s.work(log.armed ? fileBytes(path) : 0);
    }
    if (!loaded) {
        out.error = "cannot load '" + path + "': " + loaded.detail;
        return out;
    }
    {
        SpanScope s(log, "replaySphereParallel");
        out.result = replaySphereParallel(p.program,
                                          loaded.artifact.logs, jobs);
        s.work(out.result.replay.replayedInstrs);
    }
    out.secs = secondsSince(t0);
    return out;
}

} // namespace qrb
