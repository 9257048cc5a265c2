#include "sim/peer_link.h"

#include <algorithm>

#include "util/logging.h"

namespace fastgl {
namespace sim {

namespace {

/** NVLink bandwidth per direction (3090 bridge: 56.25 GB/s). */
constexpr double kNvlinkBw = 56.25e9;
/** Per-transfer NVLink launch latency. */
constexpr double kNvlinkLatency = 2e-6;

} // namespace

const char *
peer_link_kind_name(PeerLinkKind kind)
{
    switch (kind) {
    case PeerLinkKind::kLoopback:
        return "loopback";
    case PeerLinkKind::kNvlink:
        return "nvlink";
    case PeerLinkKind::kPciePeer:
        return "pcie-peer";
    }
    return "?";
}

PeerTopology::PeerTopology(const GpuSpec &spec, PeerTopologyOptions opts)
    : opts_(opts), pcie_peer_bw_(spec.pcie_bw),
      pcie_peer_latency_(2.0 * spec.pcie_latency)
{
    FASTGL_CHECK(opts_.num_devices >= 1,
                 "peer topology needs >= 1 device");
    const size_t n = static_cast<size_t>(opts_.num_devices);
    links_.resize(n * n);
    for (int s = 0; s < opts_.num_devices; ++s) {
        for (int d = 0; d < opts_.num_devices; ++d) {
            PeerLinkStats &link = links_[index(s, d)];
            link.src = s;
            link.dst = d;
            link.kind = kind(s, d);
        }
    }
}

size_t
PeerTopology::index(int src, int dst) const
{
    FASTGL_CHECK(src >= 0 && src < opts_.num_devices &&
                     dst >= 0 && dst < opts_.num_devices,
                 "peer link device out of range");
    return static_cast<size_t>(src) *
               static_cast<size_t>(opts_.num_devices) +
           static_cast<size_t>(dst);
}

PeerLinkKind
PeerTopology::kind(int src, int dst) const
{
    if (src == dst)
        return PeerLinkKind::kLoopback;
    const int n = opts_.num_devices;
    const int gap = src > dst ? src - dst : dst - src;
    const int ring = std::min(gap, n - gap);
    return ring <= opts_.nvlink_span ? PeerLinkKind::kNvlink
                                     : PeerLinkKind::kPciePeer;
}

double
PeerTopology::estimate(int src, int dst, uint64_t bytes) const
{
    switch (kind(src, dst)) {
    case PeerLinkKind::kLoopback:
        return 0.0;
    case PeerLinkKind::kNvlink:
        return kNvlinkLatency + static_cast<double>(bytes) / kNvlinkBw;
    case PeerLinkKind::kPciePeer:
        return pcie_peer_latency_ +
               static_cast<double>(bytes) / pcie_peer_bw_;
    }
    return 0.0;
}

double
PeerTopology::transfer(int src, int dst, uint64_t bytes)
{
    const double t = estimate(src, dst, bytes);
    PeerLinkStats &link = links_[index(src, dst)];
    if (src != dst) {
        ++link.transfers;
        link.bytes += bytes;
        link.seconds += t;
    }
    return t;
}

const PeerLinkStats &
PeerTopology::link(int src, int dst) const
{
    return links_[index(src, dst)];
}

std::vector<PeerLinkStats>
PeerTopology::active_links() const
{
    std::vector<PeerLinkStats> active;
    for (const PeerLinkStats &link : links_) {
        if (link.transfers > 0)
            active.push_back(link);
    }
    return active;
}

uint64_t
PeerTopology::total_bytes() const
{
    uint64_t total = 0;
    for (const PeerLinkStats &link : links_)
        total += link.bytes;
    return total;
}

int64_t
PeerTopology::total_transfers() const
{
    int64_t total = 0;
    for (const PeerLinkStats &link : links_)
        total += link.transfers;
    return total;
}

double
PeerTopology::total_seconds() const
{
    double total = 0.0;
    for (const PeerLinkStats &link : links_)
        total += link.seconds;
    return total;
}

void
PeerTopology::reset()
{
    for (PeerLinkStats &link : links_) {
        link.bytes = 0;
        link.transfers = 0;
        link.seconds = 0.0;
    }
}

} // namespace sim
} // namespace fastgl
