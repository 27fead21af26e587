/**
 * @file
 * Host-speed calibration.
 *
 * On a shared 4-vCPU Xeon virtual machine, memory-heavy code slows by
 * 20-35% for minutes at a time, and every host-time metric of a run
 * moves with it. To keep those minutes out of the metrics, every pass
 * also times a fixed kernel that shares no code with quickrec: random
 * read-modify-writes and block clears over a 16 MiB buffer (the size
 * of a simulated machine's guest memory), the memory traffic the
 * simulator itself makes. A burst runs before and after each program's
 * stretch of a pass; the stretch's host-speed factor is the mean of
 * the two bursts over a fixed reference time, and its host times are
 * divided by it. A change to quickrec cannot move the kernel, so the
 * scaling hides only the host.
 */

#ifndef QRB_CALIB_HH
#define QRB_CALIB_HH

#include <cstdint>
#include <vector>

namespace qrb
{

class Calibration
{
  public:
    Calibration();

    /** Run one fixed burst of the kernel; @return its seconds. */
    double burst();

    /**
     * Seconds one burst takes at reference host speed, measured on a
     * 4-vCPU Xeon virtual machine when the benchmark was added. It only
     * sets the scale of the factor; the metrics repeat with any
     * constant.
     */
    static constexpr double referenceSecs = 0.018;

  private:
    std::vector<std::uint32_t> _buf;
    std::uint64_t _state = 0x9e3779b97f4a7c15ull;
    std::uint32_t _sink = 0;
};

} // namespace qrb

#endif // QRB_CALIB_HH
