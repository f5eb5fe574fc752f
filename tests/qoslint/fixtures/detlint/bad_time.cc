// detlint fixture: host-time constructs.
#include <chrono>
#include <ctime>

long
hostSeconds()
{
    return time(nullptr);        // qoslint:expect(time)
}

long
qualifiedHostSeconds()
{
    return std::time(nullptr);   // qoslint:expect(time)
}

long
processTicks()
{
    return clock();              // qoslint:expect(time)
}

// qoslint:expect(wall-clock)
using Clock = std::chrono::steady_clock;

auto
wallNow()
{
    // qoslint:expect(wall-clock)
    return std::chrono::system_clock::now();
}

// Identifiers merely containing "time" or "clock" must not fire.
struct Sim
{
    long virtualTime() { return 0; }
    long tickClock{0};
};

long
virtualTimeIsFine(Sim &sim, Sim *psim)
{
    return sim.virtualTime() + psim->virtualTime() + sim.tickClock;
}
