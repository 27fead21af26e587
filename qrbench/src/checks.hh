/**
 * @file
 * The benchmark's correctness checks. Each returns an empty string
 * when the output is right and a one-line reason when it is not; a
 * non-empty reason counts the operation as failed and fails the run.
 */

#ifndef QRB_CHECKS_HH
#define QRB_CHECKS_HH

#include <string>

#include "analyze/verify.hh"
#include "ops.hh"
#include "service/service.hh"

namespace qrb
{

/** Replay completed and its digests equal the recorded ones. */
std::string checkReplay(const ReplayOut &r);

/** The 4-job replay completed with the sequential replay's digests. */
std::string checkParallel(const qr::ReplayResult &seq,
                          const qr::ParallelReplayResult &par);

/** A freshly saved artifact lints clean. */
std::string checkLint(const qr::LintReport &r);

/** The bus agent delivered, and both replays injected, every event. */
std::string checkDevices(std::uint64_t declared, std::uint64_t recorded,
                         std::uint64_t seqInjected,
                         std::uint64_t parInjected);

/**
 * The fleet ledger closes: nothing unaccounted, and every submitted
 * sphere was saved, shed or lost.
 */
std::string checkLedger(const qr::ServiceCounters &c,
                        double unaccounted);

/**
 * The exact-count tripwire: @p got must equal the warm-up reference
 * @p ref field by field; the first difference is named.
 */
std::string diffCounts(const Counts &ref, const Counts &got);

} // namespace qrb

#endif // QRB_CHECKS_HH
