#include "fleet.hh"

#include <dirent.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>

#include "checks.hh"

namespace qrb
{

using namespace qr;

namespace
{

/** How often the generator looks at the service counters. */
constexpr auto pollEvery = std::chrono::microseconds(100);

double
millis(Clock::duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

ServiceConfig
fleetConfig(const std::string &dir, std::uint64_t retainedArtifacts)
{
    ServiceConfig cfg;
    cfg.dir = dir;
    // Smaller than a run's output, so rotation evicts (after a wasted
    // compaction attempt: the artifacts carry no trace section) in
    // steady state.
    cfg.retention.maxArtifacts = retainedArtifacts;
    return cfg;
}

} // namespace

Fleet::Fleet(const std::string &dir, const std::vector<FleetSphere> &pool,
             std::uint64_t seed, std::uint64_t retainedArtifacts)
    : _dir(dir), _pool(pool), _rng(seed),
      _svc(fleetConfig(dir, retainedArtifacts))
{
    _svc.start();
}

std::size_t
Fleet::deal()
{
    if (_deck.empty()) {
        for (std::size_t i = _pool.size(); i > 0; --i)
            _deck.push_back(i - 1);
        for (std::size_t i = _deck.size(); i > 1; --i)
            std::swap(_deck[i - 1], _deck[_rng.below(i)]);
    }
    std::size_t k = _deck.back();
    _deck.pop_back();
    return k;
}

SphereRequest
Fleet::nextRequest(std::uint64_t &index)
{
    const FleetSphere &f = _pool[deal()];
    index = _next++;
    SphereRequest r;
    // The stem names the artifact, which is how poll() learns which
    // sphere a save belongs to.
    r.workload = "q" + std::to_string(index);
    r.threads = f.threads;
    r.scale = f.scale;
    r.program = f.program;
    return r;
}

bool
Fleet::submit(SphereRequest req, std::uint64_t index,
              Clock::time_point due, SpanLog &log, double *submitUs)
{
    auto t0 = Clock::now();
    SubmitResult r;
    {
        SpanScope s(log, "submit");
        r = _svc.submit(std::move(req));
    }
    if (submitUs)
        *submitUs = millis(Clock::now() - t0) * 1e3;
    if (!r.admitted())
        return false;
    _pending[index] = {due, t0};
    return true;
}

void
Fleet::poll(std::vector<Done> &done)
{
    ServiceCounters c = _svc.counters();
    std::uint64_t ended =
        c.saved + c.saveTornLeft + c.saveLost + c.aborted;
    if (ended == _seenDone)
        return;
    _seenDone = ended;
    auto now = Clock::now();

    // Every save renames a sealed artifact into place before the
    // counter moves, so the listing holds each sphere counted above.
    if (DIR *d = ::opendir(_dir.c_str())) {
        while (struct dirent *e = ::readdir(d)) {
            std::size_t len = std::strlen(e->d_name);
            if (len < 5 || std::strcmp(e->d_name + len - 5, ".qrec"))
                continue;
            const char *q = std::strstr(e->d_name, "-q");
            if (!q)
                continue;
            std::uint64_t index = std::strtoull(q + 2, nullptr, 10);
            auto it = _pending.find(index);
            if (it == _pending.end())
                continue;
            done.push_back({index, it->second, now, true});
            _pending.erase(it);
        }
        ::closedir(d);
    }

    // Everything admitted has ended; what left no artifact was lost.
    if (ended == c.admitted + c.admittedDegraded) {
        for (const auto &[index, p] : _pending)
            done.push_back({index, p, now, false});
        _pending.clear();
    }
}

ClosedWindow
Fleet::closedLoop(int completions, int outstanding, SpanLog &log,
                  std::uint64_t &failed)
{
    SpanScope w(log, "window.closed");
    int submitted = 0, ended = 0, saved = 0;
    auto start = Clock::now();
    auto last = start;
    auto topUp = [&] {
        while (submitted < completions &&
               submitted - ended < outstanding) {
            std::uint64_t index = 0;
            SphereRequest req = nextRequest(index);
            submitted++;
            if (!submit(std::move(req), index, Clock::now(), log,
                        nullptr)) {
                failed++;
                ended++;
            }
        }
    };
    std::vector<Done> done;
    topUp();
    while (ended < completions) {
        std::this_thread::sleep_for(pollEvery);
        done.clear();
        poll(done);
        for (const Done &d : done) {
            ended++;
            if (d.saved) {
                saved++;
                last = d.at;
            } else {
                failed++;
            }
        }
        topUp();
    }
    w.work(static_cast<std::uint64_t>(saved));
    return {static_cast<std::uint64_t>(saved),
            std::chrono::duration<double>(last - start).count()};
}

void
Fleet::openLoop(int spheres, double ratePerSec, SpanLog &log,
                OpenWindow &out)
{
    SpanScope w(log, "window.open");
    constexpr double lost = std::numeric_limits<double>::infinity();
    std::vector<Done> done;
    auto collect = [&] {
        done.clear();
        poll(done);
        for (const Done &d : done) {
            if (d.saved) {
                out.latencyMs.push_back(millis(d.at - d.p.due));
                out.sojournMs.push_back(millis(d.at - d.p.submitted));
                log.interval("sojourn", d.p.submitted, d.at);
            } else {
                out.latencyMs.push_back(lost);
                out.failed++;
            }
        }
    };

    auto due = Clock::now();
    for (int i = 0; i < spheres; ++i) {
        // Exponential gaps: a Poisson arrival process at the offered
        // rate, drawn from the run's seed.
        double u = static_cast<double>(_rng.next64() >> 11) * 0x1.0p-53;
        due += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(-std::log1p(-u) / ratePerSec));
        std::uint64_t index = 0;
        SphereRequest req = nextRequest(index);
        for (auto now = Clock::now(); now < due; now = Clock::now()) {
            collect();
            std::this_thread::sleep_for(
                std::min<Clock::duration>(due - Clock::now(), pollEvery));
        }
        out.lagMs.push_back(millis(Clock::now() - due));
        double us = 0;
        if (!submit(std::move(req), index, due, log, &us)) {
            out.latencyMs.push_back(lost);
            out.failed++;
        }
        out.submitUs.push_back(us);
    }
    while (!_pending.empty()) {
        std::this_thread::sleep_for(pollEvery);
        collect();
    }
    w.work(static_cast<std::uint64_t>(spheres));
}

std::string
Fleet::finish()
{
    _svc.shutdown();
    double unaccounted = 0;
    for (const StatScalar &s : _svc.snapshot().scalars) {
        if (s.name == "service.unaccounted")
            unaccounted = s.value;
    }
    return checkLedger(_svc.counters(), unaccounted);
}

} // namespace qrb
