#include "sample/id_map.h"

namespace fastgl {
namespace sample {

size_t
id_map_slots(size_t capacity_hint)
{
    const size_t wanted = capacity_hint * 2 + 1;
    size_t slots = 16;
    while (slots < wanted)
        slots <<= 1;
    return slots;
}

void
IdMap::reset(size_t capacity_hint)
{
    const size_t slots = id_map_slots(capacity_hint);
    if (slots != slots_.size()) {
        slots_.assign(slots, Slot{kEmptySlot, 0});
        mask_ = slots - 1;
    } else {
        for (size_t index : filled_)
            slots_[index].key = kEmptySlot;
    }
    filled_.clear();
    next_local_ = 0;
    probes_ = 0;
}

std::vector<graph::NodeId>
IdMap::local_to_global() const
{
    std::vector<graph::NodeId> result(filled_.size());
    for (size_t local = 0; local < filled_.size(); ++local)
        result[local] = slots_[filled_[local]].key;
    return result;
}

} // namespace sample
} // namespace fastgl
