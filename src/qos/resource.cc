#include "resource.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cmpqos
{

ResourceTimeline::ResourceTimeline(ResourceVector capacity)
    : capacity_(capacity)
{
    cmpqos_assert(capacity.cores > 0, "timeline needs core capacity");
}

ResourceVector
ResourceTimeline::reservedAt(Cycle t) const
{
    ResourceVector used;
    for (const auto &r : reservations_)
        if (r.covers(t))
            used = used + r.resources;
    return used;
}

ResourceVector
ResourceTimeline::availableAt(Cycle t) const
{
    return capacity_.minus(reservedAt(t));
}

bool
ResourceTimeline::fitsThroughout(Cycle start, Cycle end,
                                 const ResourceVector &req) const
{
    if (!req.fitsWithin(availableAt(start)))
        return false;
    for (const auto &r : reservations_)
        if (r.start > start && r.start < end &&
            !req.fitsWithin(availableAt(r.start)))
            return false;
    return true;
}

Cycle
ResourceTimeline::findEarliestStart(const ResourceVector &req,
                                    Cycle duration, Cycle not_before,
                                    Cycle latest_start) const
{
    if (not_before > latest_start)
        return maxCycle;

    std::vector<Cycle> candidates{not_before};
    for (const auto &r : reservations_) {
        if (r.end > not_before && r.end <= latest_start)
            candidates.push_back(r.end);
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());

    for (Cycle s : candidates) {
        if (fitsThroughout(s, s + duration, req))
            return s;
    }
    return maxCycle;
}

Cycle
ResourceTimeline::findLatestStart(const ResourceVector &req, Cycle duration,
                                  Cycle not_before,
                                  Cycle latest_start) const
{
    if (not_before > latest_start)
        return maxCycle;

    std::vector<Cycle> candidates{latest_start};
    for (const auto &r : reservations_) {
        // Start so the slot ends exactly when r begins...
        if (r.start >= duration) {
            const Cycle s = r.start - duration;
            if (s >= not_before && s <= latest_start)
                candidates.push_back(s);
        }
        // ...or start exactly when r frees its resources.
        if (r.end >= not_before && r.end <= latest_start)
            candidates.push_back(r.end);
    }
    std::sort(candidates.begin(), candidates.end(), std::greater<>());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());

    for (Cycle s : candidates) {
        if (fitsThroughout(s, s + duration, req))
            return s;
    }
    return maxCycle;
}

void
ResourceTimeline::reserve(JobId job, Cycle start, Cycle end,
                          const ResourceVector &req)
{
    cmpqos_assert(end > start, "empty reservation");
    cmpqos_assert(fitsThroughout(start, end, req),
                  "reservation for job %d does not fit", job);
    reservations_.push_back(Reservation{job, start, end, req});
}

void
ResourceTimeline::releaseFrom(JobId job, Cycle at)
{
    for (auto it = reservations_.begin(); it != reservations_.end();) {
        if (it->job != job) {
            ++it;
        } else if (it->start >= at) {
            it = reservations_.erase(it);
        } else {
            it->end = std::min(it->end, at);
            ++it;
        }
    }
}

void
ResourceTimeline::cancel(JobId job)
{
    std::erase_if(reservations_,
                  [job](const Reservation &r) { return r.job == job; });
}

void
ResourceTimeline::pruneBefore(Cycle t)
{
    std::erase_if(reservations_,
                  [t](const Reservation &r) { return r.end <= t; });
}

} // namespace cmpqos
