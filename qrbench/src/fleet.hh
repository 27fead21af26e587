/**
 * @file
 * Load generator for the qrecd RecordService.
 *
 * A Fleet owns one RecordService (default 2 workers) over an artifact
 * store with a retention budget, and drives it two ways:
 *
 *  - closedLoop(): keeps a fixed number of spheres outstanding and
 *    times how long the service takes to make them durable;
 *  - openLoop(): submits on a Poisson schedule at a fixed offered rate
 *    and times every sphere from when it was due, so a stalled
 *    generator or service shows as latency on the spheres behind it.
 *
 * Sphere kinds are dealt from a deck that holds every kind of the pool
 * once, shuffled from the seed, so a window of whole decks always
 * carries the same mix of work and the seed chooses only its order.
 *
 * The service reports a save only as a counter, so the fleet polls
 * the counters and, when they move, lists the store directory to learn
 * which spheres landed: each sphere's artifact stem carries its
 * submission index.
 */

#ifndef QRB_FLEET_HH
#define QRB_FLEET_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/service.hh"
#include "sim/rng.hh"
#include "spans.hh"

namespace qrb
{

/** One kind of sphere the fleet submits. */
struct FleetSphere
{
    std::string name;
    int threads = 2;
    int scale = 1;
    qr::Program program;
};

/** One closed-loop window: spheres saved and the seconds it took. */
struct ClosedWindow
{
    std::uint64_t saved = 0;
    double secs = 0;
};

/** Samples of one open-loop window (milliseconds / microseconds). */
struct OpenWindow
{
    std::vector<double> latencyMs; //!< due -> saved; +inf when lost
    std::vector<double> sojournMs; //!< submit -> saved, saved only
    std::vector<double> lagMs;     //!< submit start - due
    std::vector<double> submitUs;  //!< submit() call duration
    std::uint64_t failed = 0;      //!< shed or lost spheres
};

class Fleet
{
  public:
    /** Start a service over a fresh store at @p dir. */
    Fleet(const std::string &dir, const std::vector<FleetSphere> &pool,
          std::uint64_t seed, std::uint64_t retainedArtifacts);

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /**
     * Keep @p outstanding spheres in the service until @p completions
     * have ended. @return the spheres saved and the seconds from the
     * first submission to the last save; shed or lost spheres add to
     * @p failed.
     */
    ClosedWindow closedLoop(int completions, int outstanding,
                            SpanLog &log, std::uint64_t &failed);

    /** Submit @p spheres Poisson arrivals at @p ratePerSec. */
    void openLoop(int spheres, double ratePerSec, SpanLog &log,
                  OpenWindow &out);

    /** Shut the service down; @return a ledger failure, or empty. */
    std::string finish();

    qr::ServiceCounters counters() const { return _svc.counters(); }

  private:
    struct Pending
    {
        Clock::time_point due;
        Clock::time_point submitted;
    };

    /** A sphere whose fate is known: saved at @p at, or lost. */
    struct Done
    {
        std::uint64_t index;
        Pending p;
        Clock::time_point at;
        bool saved;
    };

    qr::SphereRequest nextRequest(std::uint64_t &index);
    /** The pool index of the next sphere kind to submit. */
    std::size_t deal();
    bool submit(qr::SphereRequest req, std::uint64_t index,
                Clock::time_point due, SpanLog &log, double *submitUs);
    void poll(std::vector<Done> &done);

    std::string _dir;
    const std::vector<FleetSphere> &_pool;
    qr::Rng _rng;
    std::vector<std::size_t> _deck; //!< kinds left in the current deck
    qr::RecordService _svc;
    std::uint64_t _next = 0;
    std::unordered_map<std::uint64_t, Pending> _pending;
    std::uint64_t _seenDone = 0;
};

} // namespace qrb

#endif // QRB_FLEET_HH
