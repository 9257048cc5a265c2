/**
 * @file
 * GPU-to-GPU interconnect model — the multi-device companion of the
 * host link (GpuSpec::pcie_bw and pcie_latency).
 *
 * A data-parallel job moves subgraphs and remote cache rows between
 * devices, and which physical link a pair of GPUs shares decides how
 * expensive that hop is: an NVLink bridge moves bytes at memory-class
 * bandwidth, while peers without one bounce through the PCIe root
 * complex at host-link speed and twice the launch latency. PeerTopology
 * models the full device mesh — link kind, bandwidth and latency per
 * ordered pair — and keeps cumulative per-link traffic statistics the
 * multi-GPU benchmarks and the CLI summaries report.
 *
 * The default topology is an NVLink ring of span `nvlink_span`: device
 * pairs within that ring distance get the NVLink constants, everything
 * else crosses PCIe peer-to-peer. Span 0 models a host with no bridges
 * at all (every hop is PCIe), a span of num_devices/2 models an
 * all-to-all NVLink mesh.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "sim/gpu_spec.h"

namespace fastgl {
namespace sim {

/** Physical link class of one device pair. */
enum class PeerLinkKind
{
    kLoopback, ///< src == dst: no transfer, zero cost.
    kNvlink,   ///< Direct NVLink bridge between the pair.
    kPciePeer, ///< Peer DMA through the PCIe root complex.
};

/** Printable link-kind name ("loopback", "nvlink", "pcie-peer"). */
const char *peer_link_kind_name(PeerLinkKind kind);

/** Interconnect constants of one modelled host. */
struct PeerTopologyOptions
{
    /** Devices in the mesh (>= 1). */
    int num_devices = 2;
    /**
     * Ring distance up to which a device pair shares an NVLink bridge
     * (1 = adjacent pairs only, the common 2-way bridge; 0 = no NVLink
     * anywhere — every peer hop crosses PCIe).
     */
    int nvlink_span = 1;
};

/** Cumulative traffic of one ordered device pair. */
struct PeerLinkStats
{
    int src = 0;
    int dst = 0;
    PeerLinkKind kind = PeerLinkKind::kLoopback;
    uint64_t bytes = 0;
    int64_t transfers = 0;
    double seconds = 0.0;
};

/** The device mesh: per-pair link model + cumulative traffic. */
class PeerTopology
{
  public:
    PeerTopology(const GpuSpec &spec, PeerTopologyOptions opts);

    int num_devices() const { return opts_.num_devices; }
    const PeerTopologyOptions &options() const { return opts_; }

    /** Link class of the ordered pair (loopback when src == dst). */
    PeerLinkKind kind(int src, int dst) const;

    /**
     * Account one transfer of @p bytes from @p src to @p dst.
     * @return the modelled transfer time in seconds (0 for loopback).
     */
    double transfer(int src, int dst, uint64_t bytes);

    /** Time a transfer would take without recording it. */
    double estimate(int src, int dst, uint64_t bytes) const;

    /** Cumulative traffic of the ordered pair. */
    const PeerLinkStats &link(int src, int dst) const;

    /** Every ordered pair that carried traffic, src-major order. */
    std::vector<PeerLinkStats> active_links() const;

    uint64_t total_bytes() const;
    int64_t total_transfers() const;
    double total_seconds() const;

    void reset();

  private:
    size_t index(int src, int dst) const;

    PeerTopologyOptions opts_;
    /** PCIe peer bandwidth: GpuSpec::pcie_bw (the peer path shares
     *  the host link). */
    double pcie_peer_bw_;
    /** PCIe peer latency: 2x GpuSpec::pcie_latency (down to the root
     *  complex and back up). */
    double pcie_peer_latency_;
    std::vector<PeerLinkStats> links_; ///< num_devices^2, src-major.
};

} // namespace sim
} // namespace fastgl
