#include "job_exec.hh"

#include "common/logging.hh"

namespace cmpqos
{

JobExecution::JobExecution(JobId id, const BenchmarkProfile &profile,
                           InstCount length, std::uint64_t seed,
                           TraceMode mode)
    : id_(id), profile_(&profile), length_(length), seed_(seed),
      mode_(mode)
{
}

AccessGenerator &
JobExecution::generator()
{
    cmpqos_assert(!retired_, "job %d: access stream used after retire()",
                  id_);
    if (!generator_)
        generator_.emplace(*profile_, seed_, jobAddressBase(id_), mode_);
    return *generator_;
}

void
JobExecution::retire()
{
    generator_.reset();
    retired_ = true;
}

CpiParams
JobExecution::cpiParams(double t2) const
{
    CpiParams p;
    p.cpiL1Inf = profile_->cpiL1Inf;
    p.t2 = t2;
    return p;
}

} // namespace cmpqos
