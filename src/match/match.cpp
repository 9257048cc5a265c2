#include "match/match.h"

namespace fastgl {
namespace match {

TransferPlan
Matcher::plan(const NodeSet &next)
{
    TransferPlan plan;
    if (!has_resident_) {
        plan.load_nodes = next.sorted();
        plan.overlap_nodes = 0;
    } else {
        // LoadNodeID = next \ resident; OverlapNodeID = next ∩ resident.
        next.difference(resident_, plan.load_nodes);
        plan.overlap_nodes = next.size() - plan.load_count();
    }
    resident_ = next;
    has_resident_ = true;
    return plan;
}

void
Matcher::reset()
{
    resident_ = NodeSet();
    has_resident_ = false;
}

} // namespace match
} // namespace fastgl
