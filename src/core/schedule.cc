#include "core/schedule.hh"

#include <sstream>

namespace adyna::core {

int
Segment::stageOf(OpId op) const
{
    for (std::size_t i = 0; i < stages.size(); ++i)
        if (stages[i].op == op)
            return static_cast<int>(i);
    return -1;
}

Segment &
Schedule::mutableSegment(std::size_t i)
{
    auto clone = std::make_shared<Segment>(*segments[i]);
    Segment &ref = *clone;
    segments[i] = std::move(clone);
    return ref;
}

std::size_t
Schedule::totalKernels() const
{
    std::size_t total = 0;
    for (const auto &seg : segments)
        for (const StageAssign &st : seg->stages)
            for (const auto &[tiles, store] : st.stores)
                total += store->size();
    return total;
}

std::string
Schedule::str() const
{
    std::ostringstream os;
    os << "Schedule: " << segments.size() << " segments, "
       << totalKernels() << " kernels\n";
    for (std::size_t s = 0; s < segments.size(); ++s) {
        const Segment &seg = *segments[s];
        os << " segment " << s << ": " << seg.stages.size()
           << " stages, " << seg.pairs.size() << " share pairs, "
           << (seg.residentWeightBytes >> 20) << " MiB weights\n";
        for (const StageAssign &st : seg.stages) {
            os << "  op#" << st.op << " tiles=" << st.baseTiles << "/"
               << st.tiles.size()
               << (st.weightsResident ? "" : " [streamed]")
               << (st.sharePair >= 0 ? " [shared]" : "") << '\n';
        }
    }
    return os.str();
}

std::string
Schedule::fingerprint() const
{
    std::ostringstream os;
    for (const auto &seg : segments) {
        for (const StageAssign &st : seg->stages) {
            os << st.op << ':' << st.baseTiles << ':';
            for (TileId t : st.tiles)
                os << t << ',';
            for (const auto &[count, store] : st.stores) {
                os << '|' << count;
                for (const kernels::Kernel &k : store->kernels()) {
                    os << '/' << k.value << '#';
                    for (unsigned byte : k.image)
                        os << byte << '.';
                }
            }
            os << ';';
        }
        os << '\n';
    }
    return os.str();
}

} // namespace adyna::core
