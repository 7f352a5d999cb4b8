#include <algorithm>

#include "baselines/designs.hh"
#include "bench.hh"
#include "common/logging.hh"
#include "graph/parser.hh"

namespace perfbench {

using namespace adyna;

int
Tracer::open(const char *name)
{
    spans_.push_back({name, current_, nowNs(), 0});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
}

void
Tracer::close(int index)
{
    spans_[static_cast<std::size_t>(index)].end = nowNs();
    current_ = spans_[static_cast<std::size_t>(index)].parent;
}

std::map<std::string, Tracer::Totals>
Tracer::reduce() const
{
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double ms = static_cast<double>(s.end - s.start) * 1e-6;
        Totals &t = out[s.name];
        ++t.calls;
        t.selfMs += ms - static_cast<double>(childNs[i]) * 1e-6;
        t.durationsMs.push_back(ms);
    }
    return out;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "offline")
        return makeOffline(seed);
    if (name == "serve")
        return makeServe(seed);
    if (name == "fleet")
        return makeFleet(seed);
    if (name == "plan")
        return makePlan(seed);
    ADYNA_FATAL("unknown workload \"", name,
                "\" (offline | serve | fleet | plan)");
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t k)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + k + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z ? z : 1;
}

std::unique_ptr<Model>
buildModel(const std::string &name, std::int64_t batch)
{
    models::ModelBundle bundle = models::buildByName(name, batch);
    bundle.traceConfig.batchSize = batch;
    graph::DynGraph dg = graph::parseModel(bundle.graph);
    return std::make_unique<Model>(
        Model{std::move(bundle), std::move(dg)});
}

Calibration
calibrate(const Model &model, const arch::HwConfig &hw,
          std::uint64_t seed)
{
    auto sys = baselines::makeSystem(model.dg, model.bundle.traceConfig,
                                     hw, baselines::Design::AdynaStatic,
                                     60, seed);
    // A private store cache: the process-wide one would make every
    // set-up after the first cheaper than the first.
    kernels::KernelStoreCache stores;
    sys.setSharedStoreCache(&stores);
    const core::RunReport r = sys.run();
    const double batch =
        static_cast<double>(model.bundle.traceConfig.batchSize);
    return {r.batchesPerSecond * batch, 1e3 / r.batchesPerSecond};
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(mid),
                     v.end());
    double m = v[mid];
    if (v.size() % 2 == 0)
        m = (m + *std::max_element(v.begin(),
                                   v.begin() + static_cast<long>(mid))) /
            2.0;
    return m;
}

} // namespace perfbench
