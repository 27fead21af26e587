#include "calib.hh"

#include <cstring>

#include "spans.hh"

namespace qrb
{

namespace
{

constexpr std::size_t bufWords = (16u << 20) / 4;
constexpr std::size_t blockWords = (256u << 10) / 4;
constexpr int rounds = 8;
constexpr int touchesPerRound = 100000;

} // namespace

Calibration::Calibration() : _buf(bufWords, 1) {}

double
Calibration::burst()
{
    auto t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) {
        // Clear one 256 KiB block, as building a machine clears guest
        // memory...
        std::size_t block = (_state >> 7) % (bufWords / blockWords);
        std::memset(&_buf[block * blockWords], 0,
                    blockWords * sizeof(std::uint32_t));
        // ...then scattered read-modify-writes, as a simulated core's
        // loads and stores land all over it.
        for (int i = 0; i < touchesPerRound; ++i) {
            _state ^= _state << 13;
            _state ^= _state >> 7;
            _state ^= _state << 17;
            std::uint32_t &w = _buf[_state % bufWords];
            w = w * 2654435761u + static_cast<std::uint32_t>(i);
            _sink += w;
        }
    }
    // Keep the work observable so it cannot be optimized away.
    _buf[_sink % bufWords] ^= _sink;
    return secondsSince(t0);
}

} // namespace qrb
